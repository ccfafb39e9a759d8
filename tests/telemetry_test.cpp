// Tests for the telemetry spine (obs/telemetry.hh): the trace-event
// renderer's exact output, JSON validity via the jsonlite parser,
// escaping of hostile names, and the sweep-level determinism contract —
// the exported trace file must be byte-identical for every RRS_THREADS
// value, verified by running the same sweep at 1, 2 and 4 lanes.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/sweep.hh"
#include "obs/jsonlite.hh"
#include "obs/telemetry.hh"

namespace {

using namespace rrs;
using obs::RunTelemetry;
using obs::TelemetrySweepInfo;

std::string
slurp(const std::string &path)
{
    std::ifstream is(path);
    EXPECT_TRUE(is.is_open()) << path;
    std::ostringstream buf;
    buf << is.rdbuf();
    return buf.str();
}

/** A member the document must carry: absent fails the test, reads Null. */
const obs::json::Value &
member(const obs::json::Value &v, const char *key)
{
    static const obs::json::Value missing;
    const obs::json::Value *m = v.find(key);
    EXPECT_NE(m, nullptr) << "missing member '" << key << "'";
    return m ? *m : missing;
}

/** A small two-run telemetry payload built by hand. */
std::vector<RunTelemetry>
sampleRuns()
{
    std::vector<RunTelemetry> runs(2);
    runs[0].setTitle("int_crc x baseline");
    auto &s = runs[0].span("run", 0, 1000);
    obs::argStr(s, "workload", "int_crc");
    obs::argInt(s, "insts", 500);
    obs::argNum(s, "ipc", 0.5);
    runs[0].counter("occupancy", 128, {{"freeInt", 12}, {"rob", 30}});
    runs[0].counter("occupancy", 256, {{"freeInt", 10}, {"rob", 32}});
    runs[1].setTitle("fp_fir x reuse");
    runs[1].span("run", 0, 800);
    return runs;
}

TelemetrySweepInfo
sampleInfo()
{
    TelemetrySweepInfo info;
    info.label = "unit";
    info.runs = 2;
    info.capturedInsts = 1234;
    info.replayedInsts = 5678;
    info.packedRecords = 777;
    return info;
}

std::vector<const RunTelemetry *>
ptrs(const std::vector<RunTelemetry> &runs)
{
    std::vector<const RunTelemetry *> out;
    for (const auto &r : runs)
        out.push_back(&r);
    return out;
}

TEST(Telemetry, RenderIsDeterministic)
{
    auto runs = sampleRuns();
    const std::string a = obs::renderSweepTrace(sampleInfo(), ptrs(runs));
    const std::string b = obs::renderSweepTrace(sampleInfo(), ptrs(runs));
    EXPECT_EQ(a, b);
    EXPECT_FALSE(a.empty());
}

TEST(Telemetry, RenderedTraceIsValidChromeJson)
{
    auto runs = sampleRuns();
    const std::string body =
        obs::renderSweepTrace(sampleInfo(), ptrs(runs));

    obs::json::Value doc;
    std::string error;
    ASSERT_TRUE(obs::json::parse(body, doc, &error)) << error;
    const obs::json::Value *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());

    // process_name metadata + 2 thread names + 2 spans + 2 counters on
    // run 0, 1 span on run 1, sweep thread name + 3 sweep spans
    // (capture, pack, stats-merge).
    EXPECT_EQ(events->arr.size(), 11u);

    // Every event is on pid 1 (constant by design: worker identity is
    // scheduling noise and must not reach the trace).
    for (const auto &ev : events->arr) {
        const auto *pid = ev.find("pid");
        ASSERT_NE(pid, nullptr);
        EXPECT_EQ(pid->num, 1.0);
    }

    // The sweep track rides at tid == run count: capture, then the
    // pack span (record-denominated) starting where capture ends, then
    // stats-merge after both.
    bool sawCapture = false, sawPack = false, sawMerge = false;
    for (const auto &ev : events->arr) {
        const auto *name = ev.find("name");
        if (name && name->str == "capture") {
            sawCapture = true;
            EXPECT_EQ(member(ev, "tid").num, 2.0);
            EXPECT_EQ(member(ev, "dur").num, 1234.0);
        }
        if (name && name->str == "pack") {
            sawPack = true;
            EXPECT_EQ(member(ev, "tid").num, 2.0);
            EXPECT_EQ(member(ev, "ts").num, 1234.0);
            EXPECT_EQ(member(ev, "dur").num, 777.0);
        }
        if (name && name->str == "stats-merge") {
            sawMerge = true;
            EXPECT_EQ(member(ev, "ts").num, 1234.0 + 777.0);
        }
    }
    EXPECT_TRUE(sawCapture);
    EXPECT_TRUE(sawPack);
    EXPECT_TRUE(sawMerge);
}

TEST(Telemetry, HostileNamesAreEscaped)
{
    std::vector<RunTelemetry> runs(1);
    runs[0].setTitle("quote\" backslash\\ newline\n end");
    auto &s = runs[0].span("span \"x\"", 0, 1);
    obs::argStr(s, "key\n", "tab\there");
    TelemetrySweepInfo info;
    info.label = "evil \"label\"";
    info.runs = 1;

    const std::string body = obs::renderSweepTrace(info, ptrs(runs));
    obs::json::Value doc;
    std::string error;
    ASSERT_TRUE(obs::json::parse(body, doc, &error)) << error;

    // The hostile strings must round-trip exactly through the parser.
    // Only tid 0 is the run's track; tid 1 is the sweep track.
    bool sawTitle = false;
    for (const auto &ev : member(doc, "traceEvents").arr) {
        const auto *name = ev.find("name");
        if (name && name->str == "thread_name" &&
            member(ev, "tid").num == 0.0) {
            const std::string got = member(member(ev, "args"), "name").str;
            EXPECT_EQ(got, "run 0: quote\" backslash\\ newline\n end");
            sawTitle = true;
        }
    }
    EXPECT_TRUE(sawTitle);
}

TEST(Telemetry, NullAndEmptyBuffersKeepTids)
{
    std::vector<RunTelemetry> runs(3);
    runs[2].span("run", 0, 10);   // only run 2 has events
    std::vector<const RunTelemetry *> p = {nullptr, &runs[1], &runs[2]};
    TelemetrySweepInfo info;
    info.label = "gaps";
    info.runs = 3;
    const std::string body = obs::renderSweepTrace(info, p);

    obs::json::Value doc;
    std::string error;
    ASSERT_TRUE(obs::json::parse(body, doc, &error)) << error;
    // Run 2's span keeps tid 2 even though runs 0/1 emitted nothing,
    // and the sweep track stays at tid 3.
    bool sawRunSpan = false;
    for (const auto &ev : member(doc, "traceEvents").arr) {
        const auto *name = ev.find("name");
        const auto *ph = ev.find("ph");
        if (name && ph && ph->str == "X" && name->str == "run") {
            EXPECT_EQ(member(ev, "tid").num, 2.0);
            sawRunSpan = true;
        }
        if (name && name->str == "stats-merge") {
            EXPECT_EQ(member(ev, "tid").num, 3.0);
        }
    }
    EXPECT_TRUE(sawRunSpan);
}

TEST(Telemetry, DirOverrideBeatsEnvironment)
{
    obs::setTelemetryDir("/some/dir");
    EXPECT_EQ(obs::telemetryDir(), "/some/dir");
    obs::setTelemetryDir("", true);   // reset: back to the environment
    const char *env = std::getenv("RRS_TELEMETRY");
    EXPECT_EQ(obs::telemetryDir(), env ? env : "");
}

// The end-to-end determinism lock: one sweep exported at 1, 2 and 4
// threads must produce byte-identical trace files.  The trace cache is
// warmed by the first sweep, so the three measured sweeps see identical
// capture deltas (zero).
TEST(TelemetrySweep, TraceBytesIdenticalAcrossThreadCounts)
{
    const std::string dir = testing::TempDir() + "telemetry_det";
    std::filesystem::create_directories(dir);

    auto makeItems = [] {
        constexpr std::uint64_t insts = 10'000;
        std::vector<harness::SweepItem> items;
        for (const char *name : {"int_crc", "fp_fir"}) {
            const auto &w = workloads::workload(name);
            for (std::uint32_t regs : {56u, 96u}) {
                auto base = harness::baselineConfig(regs);
                base.maxInsts = insts;
                items.push_back(harness::sweepItem(w, base));
                auto prop = harness::reuseConfig(regs);
                prop.maxInsts = insts;
                items.push_back(harness::sweepItem(w, prop));
            }
        }
        return items;
    };

    // Warm the trace cache without telemetry so every exported sweep
    // sees the same (zero) capture delta.
    {
        harness::SweepRunner warm(1);
        warm.outcomes(makeItems());
    }

    obs::setTelemetryDir(dir);
    std::vector<std::string> bodies;
    for (unsigned threads : {1u, 2u, 4u}) {
        harness::SweepRunner runner(threads);
        // Same label for all three: the label is part of the trace
        // body (process_name), and the sweep sequence number already
        // keeps the file names apart.
        runner.setTelemetryLabel("det");
        runner.run(makeItems());
        const std::string &path = runner.lastTelemetryPath();
        ASSERT_FALSE(path.empty()) << "threads=" << threads;
        bodies.push_back(slurp(path));
    }
    obs::setTelemetryDir("", true);

    ASSERT_EQ(bodies.size(), 3u);
    EXPECT_FALSE(bodies[0].empty());
    EXPECT_EQ(bodies[0], bodies[1]) << "1 vs 2 threads";
    EXPECT_EQ(bodies[0], bodies[2]) << "1 vs 4 threads";

    // The body itself is pinned (length and FNV-1a digest): the spans
    // and the 128-cycle occupancy track are observer outputs that no
    // exact table covers.
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : bodies[0]) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    EXPECT_EQ(bodies[0].size(), 147232u);
    EXPECT_EQ(h, 0xdc1b0440870dd4b0ULL);

    // And the trace is a valid Chrome trace-event document.
    obs::json::Value doc;
    std::string error;
    ASSERT_TRUE(obs::json::parse(bodies[0], doc, &error)) << error;
    EXPECT_NE(doc.find("traceEvents"), nullptr);
}

// The trace file-name grammar rrs-teleview sorts by: label and sweep
// index round-trip, and the index is numeric — `_sweep10` must order
// after `_sweep2`, which a lexicographic file listing gets wrong.
TEST(TelemetrySweep, ParseSweepTraceName)
{
    std::string label;
    std::uint64_t seq = 0;

    ASSERT_TRUE(obs::parseSweepTraceName("fig11_sweep0.trace.json",
                                         label, seq));
    EXPECT_EQ(label, "fig11");
    EXPECT_EQ(seq, 0u);

    // The label itself may contain "_sweep"; the index is whatever
    // follows the last occurrence.
    ASSERT_TRUE(obs::parseSweepTraceName(
        "my_sweep_bench_sweep12.trace.json", label, seq));
    EXPECT_EQ(label, "my_sweep_bench");
    EXPECT_EQ(seq, 12u);

    ASSERT_TRUE(obs::parseSweepTraceName("x_sweep10.trace.json",
                                         label, seq));
    EXPECT_EQ(seq, 10u);

    // Not sweep traces: wrong suffix, no marker, empty or non-numeric
    // index, empty label.
    EXPECT_FALSE(obs::parseSweepTraceName("fig11_sweep0.json",
                                          label, seq));
    EXPECT_FALSE(obs::parseSweepTraceName("fig11.trace.json",
                                          label, seq));
    EXPECT_FALSE(obs::parseSweepTraceName("fig11_sweep.trace.json",
                                          label, seq));
    EXPECT_FALSE(obs::parseSweepTraceName("fig11_sweep1a.trace.json",
                                          label, seq));
    EXPECT_FALSE(obs::parseSweepTraceName("_sweep3.trace.json",
                                          label, seq));
}

// Telemetry off (no directory): the sweep must not write anything and
// lastTelemetryPath stays empty.
TEST(TelemetrySweep, NoDirectoryMeansNoTrace)
{
    obs::setTelemetryDir("");
    const auto &w = workloads::workload("int_crc");
    auto cfg = harness::baselineConfig(64);
    cfg.maxInsts = 2000;
    harness::SweepRunner runner(1);
    runner.run({harness::sweepItem(w, cfg)});
    EXPECT_TRUE(runner.lastTelemetryPath().empty());
    obs::setTelemetryDir("", true);
}

} // namespace
