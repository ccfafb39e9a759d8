// Host-side phase profiler (obs/profiler.hh): nesting into path rows,
// the merge-after-join determinism contract across thread counts, the
// per-run latency samples, concurrent host phases, and the disabled
// fast path.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/threadpool.hh"
#include "harness/sweep.hh"
#include "obs/profiler.hh"
#include "stats/stats.hh"

namespace {

using namespace rrs;
using obs::PhaseRow;
using obs::PhaseTable;
using obs::Profiler;
using obs::ScopedPhase;

// Each TEST runs in its own process (gtest_discover_tests), so
// flipping the global enable and resetting the singleton is safe.
struct ProfilerOn
{
    ProfilerOn()
    {
        Profiler::setEnabled(true);
        Profiler::reset();
    }
    ~ProfilerOn() { Profiler::setEnabled(false); }
};

/** The row of `path`; nullptr when absent. */
const PhaseRow *
findRow(const PhaseTable &t, const std::string &path)
{
    for (const PhaseRow &r : t.rows) {
        if (r.path == path)
            return &r;
    }
    return nullptr;
}

/**
 * The host rows as the report prints them, one (indented name, count)
 * pair per line: nesting shows as two more spaces per level.
 */
std::vector<std::pair<std::string, std::uint64_t>>
hostRows()
{
    std::ostringstream os;
    Profiler::report(os);
    std::istringstream in(os.str());
    std::vector<std::pair<std::string, std::uint64_t>> rows;
    std::string line;
    std::getline(in, line);   // the "phase profile" header
    while (std::getline(in, line) && line.rfind("per-run", 0) != 0) {
        std::istringstream fields(line);
        std::string name, times;
        std::uint64_t count = 0;
        if (fields >> name >> count >> times && times == "x") {
            const std::size_t indent = line.find_first_not_of(' ') - 2;
            rows.emplace_back(std::string(indent, ' ') + name, count);
        }
    }
    return rows;
}

using Rows = std::vector<std::pair<std::string, std::uint64_t>>;

std::vector<std::string>
pathsOf(const PhaseTable &t)
{
    std::vector<std::string> out;
    for (const PhaseRow &r : t.rows)
        out.push_back(r.path);
    return out;
}

TEST(Profiler, ScopedPhasesNestIntoATree)
{
    ProfilerOn on;
    PhaseTable table;
    {
        Profiler::Bind bind(&table);
        ScopedPhase outer("outer");
        {
            ScopedPhase inner("inner");
        }
        {
            ScopedPhase inner("inner");
        }
        ScopedPhase sibling("sibling");
    }
    // Rows in first-entry order, parent first; "sibling" opened inside
    // "outer"'s scope, so it nests under it.
    EXPECT_EQ(pathsOf(table),
              (std::vector<std::string>{"outer", "outer/inner",
                                        "outer/sibling"}));
    const PhaseRow *outer = findRow(table, "outer");
    ASSERT_NE(outer, nullptr);
    EXPECT_EQ(outer->count, 1u);
    const PhaseRow *inner = findRow(table, "outer/inner");
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(inner->count, 2u);
    EXPECT_EQ(findRow(table, "sibling"), nullptr);
    EXPECT_GE(outer->seconds, inner->seconds);

    // Every phase closed and the binding ended: the next phase is a
    // top-level row of the host table.
    {
        ScopedPhase after("after");
    }
    EXPECT_EQ(hostRows(), (Rows{{"after", 1}}));
}

TEST(Profiler, DisabledScopedPhaseRecordsNothing)
{
    Profiler::setEnabled(false);
    PhaseTable table;
    Profiler::Bind bind(&table);
    {
        ScopedPhase phase("ghost");
    }
    EXPECT_EQ(findRow(table, "ghost"), nullptr);
    EXPECT_TRUE(table.rows.empty());
}

// Smoke for the "<1% when off" claim: a large number of disabled
// ScopedPhases must cost near nothing and record nothing.  Wall-clock
// assertions are flaky under CI load, so this only checks behaviour;
// the measured overhead number lives in DESIGN.md.
TEST(Profiler, DisabledPathIsCheapSmoke)
{
    Profiler::setEnabled(false);
    for (int i = 0; i < 1'000'000; ++i) {
        ScopedPhase phase("hot");
    }
    EXPECT_TRUE(hostRows().empty());
    Profiler::setEnabled(true);
    Profiler::reset();
    PhaseTable table;
    {
        Profiler::Bind bind(&table);
        ScopedPhase phase("hot");
    }
    Profiler::setEnabled(false);
    const PhaseRow *hot = findRow(table, "hot");
    ASSERT_NE(hot, nullptr);
    EXPECT_EQ(hot->count, 1u);
}

TEST(Profiler, MergeFoldsCountsAndChildren)
{
    ProfilerOn on;
    PhaseTable a;
    a.row("x").count = 2;
    a.row("x").seconds = 1.0;
    a.row("x/y").count = 5;

    PhaseTable b;
    b.row("x").count = 3;
    b.row("x").seconds = 0.5;
    b.row("x/z").count = 1;

    Profiler::addRun(a);
    Profiler::addRun(b);
    const PhaseTable merged = Profiler::runTable();
    EXPECT_EQ(merged.runs, 2u);
    EXPECT_EQ(pathsOf(merged),
              (std::vector<std::string>{"x", "x/y", "x/z"}));
    const PhaseRow *x = findRow(merged, "x");
    ASSERT_NE(x, nullptr);
    EXPECT_EQ(x->count, 5u);
    EXPECT_DOUBLE_EQ(x->seconds, 1.5);
    // One sample per run that entered the path.
    EXPECT_EQ(x->perRunUs, (std::vector<std::uint64_t>{1'000'000, 500'000}));
    ASSERT_NE(findRow(merged, "x/y"), nullptr);
    EXPECT_EQ(findRow(merged, "x/y")->count, 5u);
    EXPECT_EQ(findRow(merged, "x/y")->perRunUs.size(), 1u);
    ASSERT_NE(findRow(merged, "x/z"), nullptr);
    EXPECT_EQ(findRow(merged, "x/z")->count, 1u);

    // Which run of a sweep captures a trace depends on the schedule, so
    // the merged order must not depend on whether the capturing run
    // comes first: a new path goes in front of the run's next path.
    PhaseTable simulateOnly;
    simulateOnly.row("simulate").count = 1;
    PhaseTable captures;
    for (const char *path : {"capture", "capture/warmup", "simulate"})
        captures.row(path).count = 1;
    const std::vector<std::string> want = {"capture", "capture/warmup",
                                           "simulate"};
    for (bool captureFirst : {true, false}) {
        Profiler::reset();
        Profiler::addRun(captureFirst ? captures : simulateOnly);
        Profiler::addRun(captureFirst ? simulateOnly : captures);
        const PhaseTable merged2 = Profiler::runTable();
        EXPECT_EQ(pathsOf(merged2), want) << "captureFirst=" << captureFirst;
        ASSERT_NE(findRow(merged2, "simulate"), nullptr);
        EXPECT_EQ(findRow(merged2, "simulate")->count, 2u);
    }
}

TEST(Profiler, RunAggregatesReportPercentiles)
{
    ProfilerOn on;
    // Three hand-built run tables with per-run "work" times of 1ms,
    // 2ms, 4ms: p50 must be the middle run, max the slowest.
    for (double ms : {1.0, 2.0, 4.0}) {
        PhaseTable run;
        PhaseRow &work = run.row("work");
        work.count = 1;
        work.seconds = ms / 1e3;
        Profiler::addRun(run);
    }
    const PhaseTable merged = Profiler::runTable();
    EXPECT_EQ(merged.runs, 3u);
    const PhaseRow *work = findRow(merged, "work");
    ASSERT_NE(work, nullptr);
    EXPECT_EQ(work->count, 3u);
    EXPECT_NEAR(work->seconds, 0.007, 1e-9);
    EXPECT_NEAR(stats::percentile(work->perRunUs, 50), 2000.0, 1.0);
    EXPECT_NEAR(stats::percentile(work->perRunUs, 100), 4000.0, 1.0);
    EXPECT_EQ(findRow(merged, "no-such-phase"), nullptr);
}

std::vector<harness::SweepItem>
smallSweep()
{
    constexpr std::uint64_t insts = 5'000;
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
}

// The determinism contract: the merged per-run phase rows — paths,
// order and counts — are identical for every RRS_THREADS, because each
// run's phases land in its own table and the tables merge post-join in
// submission order.
TEST(Profiler, RunTreeCountsIdenticalAcrossThreadCounts)
{
    ProfilerOn on;
    // Prewarm the process-global trace cache: the first sweep of a
    // (workload, cap) pays a capture phase that later sweeps hit in
    // cache, which would skew the first-thread-count iteration.
    {
        harness::SweepRunner prewarm(1);
        prewarm.run(smallSweep());
        Profiler::reset();
    }

    using Counts = std::vector<std::pair<std::string, std::uint64_t>>;
    Counts ref;
    std::uint64_t refRuns = 0;
    for (unsigned threads : {1u, 2u, 4u}) {
        Profiler::reset();
        harness::SweepRunner runner(threads);
        runner.run(smallSweep());
        const PhaseTable merged = Profiler::runTable();
        Counts counts;
        for (const PhaseRow &r : merged.rows)
            counts.emplace_back(r.path, r.count);
        const PhaseRow *simulate = findRow(merged, "simulate");
        ASSERT_NE(simulate, nullptr) << "threads=" << threads;
        EXPECT_EQ(simulate->count, 8u) << "threads=" << threads;
        if (threads == 1) {
            ref = counts;
            refRuns = merged.runs;
        } else {
            EXPECT_EQ(counts, ref) << "threads=" << threads;
            EXPECT_EQ(merged.runs, refRuns);
        }
    }
}

TEST(Profiler, ReportIncludesRunPhases)
{
    ProfilerOn on;
    PhaseTable run;
    {
        Profiler::Bind bind(&run);
        ScopedPhase phase("simulate");
    }
    Profiler::addRun(run);

    std::ostringstream report;
    Profiler::report(report);
    EXPECT_NE(report.str().find("phase profile"), std::string::npos);
    EXPECT_NE(report.str().find("simulate"), std::string::npos);
    EXPECT_NE(report.str().find("p95_us"), std::string::npos);
    EXPECT_NE(report.str().find("(1 run tables merged"), std::string::npos);
}

// Unbound lanes record concurrently into the one host table (the
// fig01-03 analysis lanes do this in the product), and a sweep run on a
// caller that holds a host phase open records its rows unprefixed.
TEST(Profiler, ConcurrentHostPhasesAndUnprefixedRuns)
{
    ProfilerOn on;
    constexpr std::size_t n = 64;
    ThreadPool pool;   // RRS_THREADS lanes, so CI can oversubscribe
    pool.parallelFor(n, [](std::size_t) {
        // The yields let other lanes claim indices while this one holds
        // its phases open, so their rows interleave on the host table.
        ScopedPhase capture("capture");
        std::this_thread::yield();
        ScopedPhase warmup("warmup");
        std::this_thread::yield();
    });
    EXPECT_EQ(hostRows(), (Rows{{"capture", n}, {"  warmup", n}}));

    // One lane: every run executes on the caller, inside its open
    // "outer" and "sweep" phases.
    for (unsigned threads : {1u, 4u}) {
        Profiler::reset();
        {
            ScopedPhase outer("outer");
            harness::SweepRunner runner(threads);
            runner.run(smallSweep());
        }
        const PhaseTable runs = Profiler::runTable();
        ASSERT_NE(findRow(runs, "simulate"), nullptr) << "threads=" << threads;
        for (const PhaseRow &r : runs.rows) {
            EXPECT_NE(r.path.rfind("outer", 0), 0u) << r.path;
            EXPECT_NE(r.path.rfind("sweep", 0), 0u) << r.path;
        }
        EXPECT_EQ(hostRows(), (Rows{{"outer", 1},
                                    {"  sweep", 1},
                                    {"    stats-merge", 1}}))
            << "threads=" << threads;
    }
}

} // namespace
