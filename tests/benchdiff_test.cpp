// BENCH_*.json perf baselines (harness/benchjson.hh): render/load
// round-trip, atomic writes, and the regression-diff gate's exit-code
// contract — exact drift fails, noisy drift warns, schema mismatch is
// a clean error.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "harness/benchjson.hh"
#include "obs/jsonlite.hh"

namespace {

using namespace rrs;
using harness::BenchDiffOptions;
using harness::BenchResult;
using harness::RunRecord;

BenchResult
sampleResult()
{
    BenchResult r;
    r.bench = "fig11_ipc";
    r.gitSha = "abc123";
    r.buildType = "Release";
    r.threads = 4;
    r.runs.push_back(RunRecord{"int_sort", "baseline", 20000, 25000,
                               0.01, {}});
    r.runs.push_back(RunRecord{"int_sort", "reuse", 20000, 24000,
                               0.01, {}});
    r.runs.push_back(RunRecord{"fp_fir", "baseline", 20000, 26000,
                               0.02, {}});
    r.instsTotal = 60000;
    r.cyclesTotal = 75000;
    r.wallSeconds = 0.5;
    r.runsPerSec = 6.0;
    r.minstPerSec = 0.12;
    r.traceHits = 1;
    r.traceMisses = 2;
    r.instsCaptured = 40000;
    r.instsReplayed = 60000;
    r.footer = "sweep: 3 runs in 0.50 s on 4 threads\n"
               "trace cache: 1 hit / 2 misses\n";
    r.phases.push_back({"simulate", 3, 0.45, 140000, 160000, 170000});
    return r;
}

TEST(BenchJson, RenderLoadRoundTrip)
{
    const BenchResult r = sampleResult();
    const std::string path =
        testing::TempDir() + "/roundtrip/BENCH_fig11_ipc.json";
    std::string error;
    ASSERT_TRUE(harness::tryWriteBenchJson(path, r, error)) << error;

    BenchResult back;
    ASSERT_TRUE(harness::loadBenchJson(path, back, error)) << error;
    EXPECT_EQ(back.schemaVersion, harness::benchSchemaVersion);
    EXPECT_EQ(back.bench, r.bench);
    EXPECT_EQ(back.gitSha, r.gitSha);
    EXPECT_EQ(back.buildType, r.buildType);
    EXPECT_EQ(back.threads, r.threads);
    ASSERT_EQ(back.runs.size(), r.runs.size());
    for (std::size_t i = 0; i < r.runs.size(); ++i) {
        EXPECT_EQ(back.runs[i].workload, r.runs[i].workload);
        EXPECT_EQ(back.runs[i].scheme, r.runs[i].scheme);
        EXPECT_EQ(back.runs[i].insts, r.runs[i].insts);
        EXPECT_EQ(back.runs[i].cycles, r.runs[i].cycles);
    }
    EXPECT_EQ(back.instsTotal, r.instsTotal);
    EXPECT_EQ(back.cyclesTotal, r.cyclesTotal);
    EXPECT_DOUBLE_EQ(back.wallSeconds, r.wallSeconds);
    EXPECT_EQ(back.traceHits, r.traceHits);
    EXPECT_EQ(back.traceMisses, r.traceMisses);
    EXPECT_EQ(back.footer, r.footer);     // embedded newlines survive
    ASSERT_EQ(back.phases.size(), 1u);
    EXPECT_EQ(back.phases[0].path, "simulate");
    EXPECT_EQ(back.phases[0].count, 3u);
    EXPECT_DOUBLE_EQ(back.phases[0].p95Us, 160000);

    // tmp+rename left no turd behind.
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(BenchJson, WriteCreatesMissingParentDirs)
{
    const std::string path =
        testing::TempDir() + "/bench/deeply/nested/BENCH_x.json";
    std::string error;
    ASSERT_TRUE(harness::tryWriteBenchJson(path, sampleResult(), error))
        << error;
    EXPECT_TRUE(std::filesystem::exists(path));
}

TEST(BenchJson, LoadRejectsMalformedInput)
{
    const std::string path = testing::TempDir() + "/garbage.json";
    std::ofstream(path) << "this is not json";
    BenchResult out;
    std::string error;
    EXPECT_FALSE(harness::loadBenchJson(path, out, error));
    EXPECT_FALSE(error.empty());

    std::ofstream(path) << "{\"hello\": 1}";
    EXPECT_FALSE(harness::loadBenchJson(path, out, error));
    EXPECT_NE(error.find("schema_version"), std::string::npos);
}

TEST(BenchDiff, SelfDiffIsClean)
{
    const BenchResult r = sampleResult();
    std::ostringstream os;
    EXPECT_EQ(harness::diffBenchResults(r, r, {}, os), 0);
    EXPECT_NE(os.str().find("exact metrics: OK"), std::string::npos);
}

TEST(BenchDiff, InjectedIpcRegressionFails)
{
    const BenchResult base = sampleResult();
    BenchResult cur = base;
    cur.runs[1].cycles += 500;    // IPC regression on int_sort/reuse
    std::ostringstream os;
    EXPECT_EQ(harness::diffBenchResults(base, cur, {}, os), 1);
    EXPECT_NE(os.str().find("EXACT DRIFT"), std::string::npos);
    EXPECT_NE(os.str().find("int_sort"), std::string::npos);
    EXPECT_NE(os.str().find("cycles"), std::string::npos);
}

TEST(BenchDiff, InstructionCountDriftFails)
{
    const BenchResult base = sampleResult();
    BenchResult cur = base;
    cur.runs[0].insts -= 1;
    std::ostringstream os;
    EXPECT_EQ(harness::diffBenchResults(base, cur, {}, os), 1);
    EXPECT_NE(os.str().find("insts"), std::string::npos);
}

TEST(BenchDiff, RunCountMismatchFails)
{
    const BenchResult base = sampleResult();
    BenchResult cur = base;
    cur.runs.pop_back();
    std::ostringstream os;
    EXPECT_EQ(harness::diffBenchResults(base, cur, {}, os), 1);
    EXPECT_NE(os.str().find("run count"), std::string::npos);
}

TEST(BenchDiff, ThroughputDriftOnlyWarnsByDefault)
{
    const BenchResult base = sampleResult();
    BenchResult cur = base;
    cur.wallSeconds = base.wallSeconds * 3;   // huge, but noisy
    cur.runsPerSec = base.runsPerSec / 3;
    std::ostringstream os;
    EXPECT_EQ(harness::diffBenchResults(base, cur, {}, os), 0);
    EXPECT_NE(os.str().find("warn-only"), std::string::npos);
    EXPECT_EQ(os.str().find("EXACT DRIFT"), std::string::npos);
}

TEST(BenchDiff, ThroughputThresholdGates)
{
    const BenchResult base = sampleResult();
    BenchResult cur = base;
    cur.wallSeconds = base.wallSeconds * 1.5;  // +50%
    BenchDiffOptions opts;
    opts.throughputThresholdPct = 10;
    std::ostringstream os;
    EXPECT_EQ(harness::diffBenchResults(base, cur, opts, os), 1);
    EXPECT_NE(os.str().find("REGRESSION"), std::string::npos);

    opts.throughputThresholdPct = 80;          // inside the budget
    std::ostringstream ok;
    EXPECT_EQ(harness::diffBenchResults(base, cur, opts, ok), 0);
}

TEST(BenchDiff, ThroughputSpeedupPasses)
{
    // Twice as fast on every throughput metric: only a slowdown past
    // the threshold fails the gate.
    const BenchResult base = sampleResult();
    BenchResult cur = base;
    cur.wallSeconds = base.wallSeconds / 2;
    cur.runsPerSec = base.runsPerSec * 2;
    cur.minstPerSec = base.minstPerSec * 2;
    BenchDiffOptions opts;
    opts.throughputThresholdPct = 50;
    std::ostringstream os;
    EXPECT_EQ(harness::diffBenchResults(base, cur, opts, os), 0);
    EXPECT_EQ(os.str().find("REGRESSION"), std::string::npos);
}

TEST(BenchDiff, SchemaMismatchIsCleanError)
{
    const BenchResult base = sampleResult();
    BenchResult cur = base;
    cur.schemaVersion = harness::benchSchemaVersion + 1;
    std::ostringstream os;
    EXPECT_EQ(harness::diffBenchResults(base, cur, {}, os), 2);
    EXPECT_NE(os.str().find("schema version mismatch"),
              std::string::npos);
    // A schema error reports nothing else: the formats don't compare.
    EXPECT_EQ(os.str().find("EXACT"), std::string::npos);
}

TEST(BenchDiff, MarkdownModeEmitsPipeTable)
{
    const BenchResult base = sampleResult();
    BenchResult cur = base;
    cur.runs[0].cycles += 7;
    BenchDiffOptions opts;
    opts.markdown = true;
    std::ostringstream os;
    EXPECT_EQ(harness::diffBenchResults(base, cur, opts, os), 1);
    EXPECT_NE(os.str().find("| workload |"), std::string::npos);
    EXPECT_NE(os.str().find("| int_sort |"), std::string::npos);
}

TEST(BenchDiff, PhaseProfileDeltaIsWarnOnly)
{
    const BenchResult base = sampleResult();
    BenchResult cur = base;
    cur.phases[0].seconds = base.phases[0].seconds * 2;   // +100% host time
    cur.phases.push_back({"simulate/drain", 3, 0.05, 100, 200, 300});
    std::ostringstream os;
    // Host wall clock per phase never gates: still exit 0.
    EXPECT_EQ(harness::diffBenchResults(base, cur, {}, os), 0);
    const std::string text = os.str();
    EXPECT_NE(text.find("phase profile"), std::string::npos) << text;
    EXPECT_NE(text.find("simulate"), std::string::npos);
    EXPECT_NE(text.find("+100.0%"), std::string::npos) << text;
    // The phase present only on the current side is flagged as new.
    EXPECT_NE(text.find("simulate/drain"), std::string::npos);
    EXPECT_NE(text.find("new"), std::string::npos);
}

TEST(BenchDiff, PhaseProfileDeltaMarkdownTable)
{
    const BenchResult base = sampleResult();
    BenchResult cur = base;
    cur.phases[0].seconds *= 1.5;
    BenchDiffOptions opts;
    opts.markdown = true;
    std::ostringstream os;
    EXPECT_EQ(harness::diffBenchResults(base, cur, opts, os), 0);
    const std::string text = os.str();
    EXPECT_NE(text.find("| phase |"), std::string::npos) << text;
    EXPECT_NE(text.find("| simulate |"), std::string::npos);
    EXPECT_NE(text.find("+50.0%"), std::string::npos);
}

TEST(BenchDiff, NoPhasesMeansNoPhaseTable)
{
    BenchResult base = sampleResult();
    BenchResult cur = base;
    base.phases.clear();
    cur.phases.clear();
    std::ostringstream os;
    EXPECT_EQ(harness::diffBenchResults(base, cur, {}, os), 0);
    EXPECT_EQ(os.str().find("phase profile"), std::string::npos);
}

TEST(BenchDiff, TinyIpcKeepsItsExponentInDriftRows)
{
    // A run whose IPC is far below 1e-3 (1 inst in 175000 cycles).
    // The drift table used to truncate the %.17g form at 8 chars,
    // printing "5.714285" — a million times the actual 5.71e-06.
    BenchResult base = sampleResult();
    base.runs[0].insts = 1;
    base.runs[0].cycles = 175000;
    BenchResult cur = base;
    cur.runs[0].cycles = 174000;
    std::ostringstream os;
    EXPECT_EQ(harness::diffBenchResults(base, cur, {}, os), 1);
    const std::string text = os.str();
    EXPECT_NE(text.find("e-06"), std::string::npos) << text;
    EXPECT_EQ(text.find("5.714285 "), std::string::npos) << text;
}

harness::SampledSummary
sampledStats(double mean, double ci)
{
    harness::SampledSummary sm;
    sm.enabled = true;
    sm.windows = 16;
    sm.meanIpc = mean;
    sm.stddevIpc = ci / 1.96 * 4.0;   // n = 16 -> sqrt(n) = 4
    sm.ci95Ipc = ci;
    sm.medianIpc = mean;
    sm.detailedInsts = 16384;
    sm.detailedCycles =
        static_cast<std::uint64_t>(16384.0 / mean);
    sm.warmInsts = 16384;
    sm.skippedInsts = 98304;
    return sm;
}

TEST(BenchJson, SampledRowsRoundTrip)
{
    BenchResult r = sampleResult();
    r.runs[1].sampled = sampledStats(0.83, 0.021);
    const std::string path =
        testing::TempDir() + "/sampled/BENCH_fig11_ipc.json";
    std::string error;
    ASSERT_TRUE(harness::tryWriteBenchJson(path, r, error)) << error;

    BenchResult back;
    ASSERT_TRUE(harness::loadBenchJson(path, back, error)) << error;
    ASSERT_EQ(back.runs.size(), r.runs.size());
    EXPECT_FALSE(back.runs[0].sampled.enabled);
    const harness::SampledSummary &sm = back.runs[1].sampled;
    ASSERT_TRUE(sm.enabled);
    EXPECT_EQ(sm.windows, 16u);
    EXPECT_DOUBLE_EQ(sm.meanIpc, 0.83);
    EXPECT_DOUBLE_EQ(sm.ci95Ipc, 0.021);
    EXPECT_DOUBLE_EQ(sm.medianIpc, 0.83);
    EXPECT_EQ(sm.detailedInsts, 16384u);
    EXPECT_EQ(sm.warmInsts, 16384u);
    EXPECT_EQ(sm.skippedInsts, 98304u);
}

TEST(BenchDiff, SampledRowsGateOnCiOverlapNotExactEquality)
{
    BenchResult base = sampleResult();
    for (auto &run : base.runs)
        run.sampled = sampledStats(0.80, 0.02);
    BenchResult cur = base;
    // Different detailed aggregates AND a slightly different mean:
    // inside the summed CIs, so this must be clean.
    cur.runs[0].cycles += 1234;
    cur.runs[0].sampled = sampledStats(0.83, 0.02);
    std::ostringstream os;
    EXPECT_EQ(harness::diffBenchResults(base, cur, {}, os), 0);
    EXPECT_NE(os.str().find("exact metrics: OK"), std::string::npos);

    // Push the mean outside base.ci + cur.ci: now it is drift.
    cur.runs[0].sampled = sampledStats(0.85, 0.02);
    std::ostringstream bad;
    EXPECT_EQ(harness::diffBenchResults(base, cur, {}, bad), 1);
    EXPECT_NE(bad.str().find("mean_ipc"), std::string::npos)
        << bad.str();
}

TEST(BenchDiff, SampledModeMismatchIsDrift)
{
    BenchResult base = sampleResult();
    BenchResult cur = base;
    cur.runs[2].sampled = sampledStats(0.77, 0.02);
    std::ostringstream os;
    EXPECT_EQ(harness::diffBenchResults(base, cur, {}, os), 1);
    EXPECT_NE(os.str().find("mode changed"), std::string::npos)
        << os.str();
}

TEST(BenchJson, MetricSchemaSurvivesRender)
{
    BenchResult r = sampleResult();
    r.metricSchema = "{\n    \"sweep.totalRuns\": {\"kind\": "
                     "\"counter\", \"unit\": \"runs\", \"desc\": "
                     "\"runs\"}\n  }";
    const std::string body = harness::renderBenchJson(r);
    EXPECT_NE(body.find("\"metric_schema\""), std::string::npos);
    EXPECT_NE(body.find("sweep.totalRuns"), std::string::npos);

    // The loader tolerates (and currently skips) the schema block, and
    // an empty schema still renders valid JSON.
    const std::string path =
        testing::TempDir() + "/BENCH_schema.json";
    std::string error;
    ASSERT_TRUE(harness::tryWriteBenchJson(path, r, error)) << error;
    BenchResult back;
    ASSERT_TRUE(harness::loadBenchJson(path, back, error)) << error;
    EXPECT_EQ(back.bench, r.bench);

    r.metricSchema.clear();
    ASSERT_TRUE(harness::tryWriteBenchJson(path, r, error)) << error;
    ASSERT_TRUE(harness::loadBenchJson(path, back, error)) << error;
}

// The --json diff report: a machine-readable document carrying the
// same verdicts and exit codes as text mode (both render one
// collectBenchDiff report, so they can never disagree), that parses
// back with the in-tree JSON reader.
TEST(BenchDiffJson, RoundTripsAndAgreesWithTextMode)
{
    const BenchResult base = sampleResult();
    BenchResult cur = sampleResult();
    cur.runs[1].cycles += 100;   // exact drift: fails both modes

    const BenchDiffOptions opts;
    const harness::BenchDiffReport report =
        harness::collectBenchDiff(base, cur, opts);
    std::ostringstream text;
    EXPECT_EQ(harness::diffBenchResults(base, cur, opts, text),
              report.exitCode);
    EXPECT_EQ(report.exitCode, 1);
    EXPECT_EQ(report.verdict(), std::string("drift"));

    const std::string body = harness::renderBenchDiffJson(report);
    obs::json::Value doc;
    std::string error;
    ASSERT_TRUE(obs::json::parse(body, doc, &error)) << error;
    EXPECT_EQ(doc.at("bench").str, base.bench);
    EXPECT_EQ(static_cast<int>(doc.at("exit_code").num),
              report.exitCode);
    EXPECT_EQ(doc.at("verdict").str, report.verdict());
    const obs::json::Value &drift = doc.at("exact_drift");
    ASSERT_FALSE(drift.arr.empty());
    bool sawCycles = false;
    for (const auto &row : drift.arr)
        sawCycles = sawCycles || row.at("metric").str == "cycles";
    EXPECT_TRUE(sawCycles);

    // A clean self-diff reports exit code 0 in both modes too.
    const harness::BenchDiffReport clean =
        harness::collectBenchDiff(base, base, opts);
    EXPECT_EQ(clean.exitCode, 0);
    obs::json::Value cleanDoc;
    ASSERT_TRUE(obs::json::parse(harness::renderBenchDiffJson(clean),
                                 cleanDoc, &error))
        << error;
    EXPECT_EQ(cleanDoc.at("verdict").str, std::string("clean"));
    EXPECT_TRUE(cleanDoc.at("exact_drift").arr.empty());
}

} // namespace
