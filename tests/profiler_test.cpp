// Host-side phase profiler (obs/profiler.hh): nesting, the
// merge-after-join determinism contract across thread counts, the
// per-run latency aggregates, and the disabled fast path.

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "harness/sweep.hh"
#include "obs/profiler.hh"

namespace {

using namespace rrs;
using obs::PhaseNode;
using obs::PhaseTree;
using obs::Profiler;
using obs::ScopedPhase;

// Each TEST runs in its own process (gtest_discover_tests), so
// flipping the global enable and resetting the singleton is safe.
struct ProfilerOn
{
    ProfilerOn()
    {
        Profiler::setEnabled(true);
        Profiler::instance().reset();
    }
    ~ProfilerOn() { Profiler::setEnabled(false); }
};

TEST(Profiler, ScopedPhasesNestIntoATree)
{
    ProfilerOn on;
    PhaseTree tree;
    {
        Profiler::Bind bind(&tree);
        ScopedPhase outer("outer");
        {
            ScopedPhase inner("inner");
        }
        {
            ScopedPhase inner("inner");
        }
        ScopedPhase sibling("sibling");
    }
    ASSERT_TRUE(tree.atRoot());
    const PhaseNode *outer = tree.root().find("outer");
    ASSERT_NE(outer, nullptr);
    EXPECT_EQ(outer->count, 1u);
    const PhaseNode *inner = outer->find("inner");
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(inner->count, 2u);
    // "sibling" opened inside "outer"'s scope, so it nests under it.
    EXPECT_NE(outer->find("sibling"), nullptr);
    EXPECT_EQ(tree.root().find("sibling"), nullptr);
    EXPECT_GE(outer->seconds, inner->seconds);
}

TEST(Profiler, DisabledScopedPhaseRecordsNothing)
{
    Profiler::setEnabled(false);
    PhaseTree tree;
    Profiler::Bind bind(&tree);
    {
        ScopedPhase phase("ghost");
    }
    EXPECT_EQ(tree.root().find("ghost"), nullptr);
    EXPECT_TRUE(tree.root().children.empty());
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
    Profiler::setEnabled(true);
    Profiler::instance().reset();
    PhaseTree tree;
    {
        Profiler::Bind bind(&tree);
        ScopedPhase phase("hot");
    }
    Profiler::setEnabled(false);
    const PhaseNode *hot = tree.root().find("hot");
    ASSERT_NE(hot, nullptr);
    EXPECT_EQ(hot->count, 1u);
}

TEST(Profiler, MergeFoldsCountsAndChildren)
{
    PhaseNode a;
    a.name = "root";
    PhaseNode *ax = a.child("x");
    ax->count = 2;
    ax->seconds = 1.0;
    ax->child("y")->count = 5;

    PhaseNode b;
    b.name = "root";
    PhaseNode *bx = b.child("x");
    bx->count = 3;
    bx->seconds = 0.5;
    bx->child("z")->count = 1;

    a.merge(b);
    const PhaseNode *x = a.find("x");
    ASSERT_NE(x, nullptr);
    EXPECT_EQ(x->count, 5u);
    EXPECT_DOUBLE_EQ(x->seconds, 1.5);
    ASSERT_NE(x->find("y"), nullptr);
    EXPECT_EQ(x->find("y")->count, 5u);
    ASSERT_NE(x->find("z"), nullptr);
    EXPECT_EQ(x->find("z")->count, 1u);
}

TEST(Profiler, RunAggregatesReportPercentiles)
{
    ProfilerOn on;
    // Three hand-built run trees with per-run "work" times of 1ms,
    // 2ms, 4ms: p50 must be the middle run, max the slowest.
    for (double ms : {1.0, 2.0, 4.0}) {
        PhaseTree tree;
        Profiler::Bind bind(&tree);
        PhaseNode *n = tree.enter("work");
        tree.leave(ms / 1e3);
        ASSERT_EQ(n->count, 1u);
        Profiler::instance().addRunTree(tree);
    }
    Profiler &p = Profiler::instance();
    EXPECT_EQ(p.runsMerged(), 3u);
    const PhaseNode *work = p.runTree().find("work");
    ASSERT_NE(work, nullptr);
    EXPECT_EQ(work->count, 3u);
    EXPECT_NEAR(work->seconds, 0.007, 1e-9);
    EXPECT_NEAR(p.runPercentileUs("work", 50), 2000.0, 1.0);
    EXPECT_NEAR(p.runPercentileUs("work", 100), 4000.0, 1.0);
    EXPECT_EQ(p.runPercentileUs("no-such-phase", 50), 0.0);
}

// Collect {path -> count} from the merged per-run tree.
void
flattenCounts(const PhaseNode &node, const std::string &prefix,
              std::map<std::string, std::uint64_t> &out)
{
    for (const auto &c : node.children) {
        const std::string path =
            prefix.empty() ? c->name : prefix + "/" + c->name;
        out[path] += c->count;
        flattenCounts(*c, path, out);
    }
}

// The determinism contract: the merged per-run phase counts are
// identical for every RRS_THREADS, because each run's phases land in
// its own tree and the trees merge post-join in submission order.
TEST(Profiler, RunTreeCountsIdenticalAcrossThreadCounts)
{
    ProfilerOn on;
    constexpr std::uint64_t insts = 5'000;
    auto buildItems = [] {
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

    // Prewarm the process-global trace cache: the first sweep of a
    // (workload, cap) pays a capture phase that later sweeps hit in
    // cache, which would skew the first-thread-count iteration.
    {
        harness::SweepRunner prewarm(1);
        prewarm.run(buildItems());
        Profiler::instance().reset();
    }

    std::map<std::string, std::uint64_t> ref;
    std::uint64_t refRuns = 0;
    for (unsigned threads : {1u, 2u, 4u}) {
        Profiler::instance().reset();
        harness::SweepRunner runner(threads);
        runner.run(buildItems());
        std::map<std::string, std::uint64_t> counts;
        flattenCounts(Profiler::instance().runTree(), "", counts);
        ASSERT_NE(counts.find("simulate"), counts.end())
            << "threads=" << threads;
        EXPECT_EQ(counts["simulate"], 8u) << "threads=" << threads;
        if (threads == 1) {
            ref = counts;
            refRuns = Profiler::instance().runsMerged();
        } else {
            EXPECT_EQ(counts, ref) << "threads=" << threads;
            EXPECT_EQ(Profiler::instance().runsMerged(), refRuns);
        }
    }
}

TEST(Profiler, ReportIncludesRunPhases)
{
    ProfilerOn on;
    PhaseTree tree;
    {
        Profiler::Bind bind(&tree);
        ScopedPhase phase("simulate");
    }
    Profiler::instance().addRunTree(tree);

    std::ostringstream report;
    Profiler::instance().report(report);
    EXPECT_NE(report.str().find("phase profile"), std::string::npos);
    EXPECT_NE(report.str().find("simulate"), std::string::npos);
    EXPECT_NE(report.str().find("p95_us"), std::string::npos);
    EXPECT_NE(report.str().find("(1 run trees merged"), std::string::npos);
}

} // namespace
