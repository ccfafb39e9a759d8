// Tests for the sweep's telemetry trace (harness/sweep.hh
// renderSweepTrace, obs/telemetry.hh): the rendered document's
// structure, JSON validity via the jsonlite parser, escaping of
// hostile names, and the sweep-level determinism contract — the
// exported trace file must be byte-identical for every RRS_THREADS
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

/** The parsed "traceEvents" array of a rendered trace. */
std::vector<obs::json::Value>
traceEvents(const std::string &body)
{
    obs::json::Value doc;
    std::string error;
    EXPECT_TRUE(obs::json::parse(body, doc, &error)) << error;
    return member(doc, "traceEvents").arr;
}

/** Two finished runs built by hand: run 0 with two occupancy samples. */
struct SampleSweep
{
    std::vector<harness::SweepItem> items;
    std::vector<harness::SweepResult> results;
    harness::SweepSummary summary;

    SampleSweep()
    {
        items.push_back(harness::sweepItem(workloads::workload("int_crc"),
                                           harness::baselineConfig(64)));
        items.push_back(harness::sweepItem(workloads::workload("fp_fir"),
                                           harness::reuseConfig(64)));
        results.resize(2);
        harness::Outcome &o0 = results[0].outcome;
        o0.sim.cycles = 1000;
        o0.sim.committedInsts = 500;
        o0.occupancy.push_back({0, 12, 20, {3, 1, 0}, 30, 10, 4});
        o0.occupancy.push_back({128, 10, 19, {4, 2, 1}, 32, 11, 5});
        results[1].outcome.sim.cycles = 800;
        summary.runs = 2;
        summary.instsCaptured = 1234;
        summary.instsReplayed = 5678;
        summary.recordsPacked = 777;
    }

    std::string
    render(const std::string &label = "unit") const
    {
        return harness::renderSweepTrace(label, items, results, summary);
    }
};

TEST(Telemetry, RenderedTraceIsValidChromeJson)
{
    const SampleSweep sweep;
    const std::vector<obs::json::Value> events =
        traceEvents(sweep.render());

    // process_name metadata; per run a thread name, a run and a
    // simulate span, plus run 0's two counter samples; the sweep
    // thread name and its three spans (capture, pack, stats-merge).
    EXPECT_EQ(events.size(), 13u);

    // Every event is on pid 1 (constant by design: worker identity is
    // scheduling noise and must not reach the trace).
    for (const auto &ev : events)
        EXPECT_EQ(member(ev, "pid").num, 1.0);

    bool sawRun = false, sawCounter = false;
    bool sawCapture = false, sawPack = false, sawMerge = false;
    for (const auto &ev : events) {
        const std::string &name = member(ev, "name").str;
        const obs::json::Value *args = ev.find("args");
        if (name == "run" && member(ev, "tid").num == 0.0) {
            // The run span carries the seed the run's lane used.
            sawRun = true;
            EXPECT_EQ(member(ev, "dur").num, 1000.0);
            EXPECT_EQ(member(*args, "workload").str, "int_crc");
            EXPECT_EQ(member(*args, "scheme").str, "baseline");
            EXPECT_EQ(member(*args, "seed").num,
                      static_cast<double>(sweep.items[0].runSeed(0)));
            EXPECT_EQ(member(*args, "ipc").num, 0.5);
        }
        if (name == "occupancy (run 0)" && member(ev, "ts").num == 128) {
            // `shared` is the count at >= 1 version.
            sawCounter = true;
            EXPECT_EQ(member(ev, "tid").num, 0.0);
            EXPECT_EQ(member(*args, "freeInt").num, 10.0);
            EXPECT_EQ(member(*args, "freeFp").num, 19.0);
            EXPECT_EQ(member(*args, "shared").num, 4.0);
            EXPECT_EQ(member(*args, "rob").num, 32.0);
            EXPECT_EQ(member(*args, "iq").num, 11.0);
            EXPECT_EQ(member(*args, "lsq").num, 5.0);
        }
        // The sweep track rides at tid == run count: capture, then the
        // pack span (record-denominated) starting where capture ends,
        // then stats-merge after both.
        if (name == "capture") {
            sawCapture = true;
            EXPECT_EQ(member(ev, "tid").num, 2.0);
            EXPECT_EQ(member(ev, "dur").num, 1234.0);
            EXPECT_EQ(member(*args, "replayed_insts").num, 5678.0);
        }
        if (name == "pack") {
            sawPack = true;
            EXPECT_EQ(member(ev, "tid").num, 2.0);
            EXPECT_EQ(member(ev, "ts").num, 1234.0);
            EXPECT_EQ(member(ev, "dur").num, 777.0);
        }
        if (name == "stats-merge") {
            sawMerge = true;
            EXPECT_EQ(member(ev, "ts").num, 1234.0 + 777.0);
            EXPECT_EQ(member(*args, "runs").num, 2.0);
        }
    }
    EXPECT_TRUE(sawRun);
    EXPECT_TRUE(sawCounter);
    EXPECT_TRUE(sawCapture);
    EXPECT_TRUE(sawPack);
    EXPECT_TRUE(sawMerge);
}

TEST(Telemetry, HostileNamesAreEscaped)
{
    SampleSweep sweep;
    const workloads::Workload hostile{"quote\" backslash\\ newline\n end",
                                      "specint", "", 0};
    sweep.items[0].workload = &hostile;
    sweep.items[0].config.scheme = "tab\there";
    const std::string label = "evil \"label\"";
    const std::vector<obs::json::Value> events =
        traceEvents(sweep.render(label));

    // The hostile strings must round-trip exactly through the parser.
    // Only tid 0 is the hostile run's track.
    bool sawProcess = false, sawTitle = false, sawRun = false;
    for (const auto &ev : events) {
        const std::string &name = member(ev, "name").str;
        if (name == "process_name") {
            EXPECT_EQ(member(member(ev, "args"), "name").str,
                      "rrsim " + label + " (simulated time: 1us = 1 cycle)");
            sawProcess = true;
        }
        if (name == "thread_name" && member(ev, "tid").num == 0.0) {
            EXPECT_EQ(member(member(ev, "args"), "name").str,
                      "run 0: quote\" backslash\\ newline\n end x tab\there");
            sawTitle = true;
        }
        if (name == "run" && member(ev, "tid").num == 0.0) {
            const obs::json::Value &args = member(ev, "args");
            EXPECT_EQ(member(args, "workload").str, hostile.name);
            EXPECT_EQ(member(args, "scheme").str, "tab\there");
            sawRun = true;
        }
    }
    EXPECT_TRUE(sawProcess);
    EXPECT_TRUE(sawTitle);
    EXPECT_TRUE(sawRun);
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

    // The body itself is pinned (length and FNV-1a digest): the spans'
    // args and the 128-cycle occupancy series reach no exact table.
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
