// Differential test for the parallel sweep engine: the same sweep must
// produce bit-identical Outcomes no matter how many threads execute it.
// This is the determinism contract documented in harness/sweep.hh.

#include <gtest/gtest.h>

#include <vector>

#include "harness/sweep.hh"
#include "obs/telemetry.hh"

namespace {

using namespace rrs;
using harness::Outcome;
using harness::SweepItem;
using harness::SweepRunner;

// The reference 8-config sweep: two workloads x two register-file
// sizes x {baseline, reuse}.  One reuse entry also samples the Fig. 9
// occupancy series so the vector payload is covered.
std::vector<SweepItem>
referenceSweep()
{
    constexpr std::uint64_t insts = 20'000;
    std::vector<SweepItem> items;
    for (const char *name : {"int_crc", "fp_fir"}) {
        const auto &w = workloads::workload(name);
        for (std::uint32_t regs : {56u, 96u}) {
            auto base = harness::baselineConfig(regs);
            base.maxInsts = insts;
            items.push_back(harness::sweepItem(w, base));
            auto prop = harness::reuseConfig(regs);
            prop.maxInsts = insts;
            bool sample = items.size() == 1;
            items.push_back(harness::sweepItem(w, prop, sample));
        }
    }
    return items;
}

void
expectOutcomeEq(const Outcome &a, const Outcome &b, std::size_t idx)
{
    SCOPED_TRACE("sweep entry " + std::to_string(idx));
    EXPECT_EQ(a.sim.cycles, b.sim.cycles);
    EXPECT_EQ(a.sim.committedInsts, b.sim.committedInsts);
    EXPECT_EQ(a.sim.committedOps, b.sim.committedOps);
    EXPECT_EQ(a.condAccuracy, b.condAccuracy);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
    EXPECT_EQ(a.exceptions, b.exceptions);
    EXPECT_EQ(a.allocations, b.allocations);
    EXPECT_EQ(a.reuses, b.reuses);
    EXPECT_EQ(a.repairs, b.repairs);
    EXPECT_EQ(a.renameStalls, b.renameStalls);
    EXPECT_EQ(a.fig12.reuseCorrect, b.fig12.reuseCorrect);
    EXPECT_EQ(a.fig12.reuseWrong, b.fig12.reuseWrong);
    EXPECT_EQ(a.fig12.noReuseCorrect, b.fig12.noReuseCorrect);
    EXPECT_EQ(a.fig12.noReuseWrong, b.fig12.noReuseWrong);
    EXPECT_EQ(a.occupancy, b.occupancy);
}

TEST(SweepDeterminism, BitIdenticalAcrossThreadCounts)
{
    auto items = referenceSweep();
    ASSERT_EQ(items.size(), 8u);

    SweepRunner one(1);
    auto ref = one.outcomes(items);
    ASSERT_EQ(ref.size(), items.size());

    for (unsigned threads : {2u, 4u}) {
        SweepRunner runner(threads);
        auto got = runner.outcomes(items);
        ASSERT_EQ(got.size(), ref.size()) << "threads=" << threads;
        for (std::size_t i = 0; i < ref.size(); ++i) {
            SCOPED_TRACE("threads=" + std::to_string(threads));
            expectOutcomeEq(ref[i], got[i], i);
        }
    }
}

TEST(SweepDeterminism, RepeatedRunsAreIdentical)
{
    auto items = referenceSweep();
    SweepRunner runner(4);
    auto first = runner.outcomes(items);
    auto second = runner.outcomes(items);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i)
        expectOutcomeEq(first[i], second[i], i);
}

// The engine's seed rule: entry i runs with sweepSeed(config seed, i).
// A serial runOn with the same derived seed must reproduce the sweep's
// result exactly — the pool adds nothing to the numbers.
TEST(SweepDeterminism, MatchesSerialRunWithDerivedSeed)
{
    auto items = referenceSweep();
    SweepRunner runner(4);
    auto swept = runner.run(items);

    // The sweep samples occupancy for Fig. 9 items and, while
    // RRS_TELEMETRY is set, for every run; the serial run asks alike.
    const bool telemetry = !obs::telemetryDir().empty();
    for (std::size_t i : {std::size_t{0}, std::size_t{5}}) {
        auto cfg = items[i].config;
        cfg.core.seed = harness::sweepSeed(cfg.core.seed, i);
        auto serial = harness::runOn(*items[i].workload, cfg,
                                     items[i].sampleSharing || telemetry);
        expectOutcomeEq(serial, swept[i].outcome, i);
    }
}

TEST(SweepDeterminism, SeedDerivationIsStableAndDistinct)
{
    EXPECT_EQ(harness::sweepSeed(12345, 0), harness::sweepSeed(12345, 0));
    EXPECT_NE(harness::sweepSeed(12345, 0), harness::sweepSeed(12345, 1));
    EXPECT_NE(harness::sweepSeed(12345, 1), harness::sweepSeed(12345, 2));
    EXPECT_NE(harness::sweepSeed(12345, 0), harness::sweepSeed(54321, 0));
}

TEST(SweepSummary, CountsAndThroughput)
{
    auto items = referenceSweep();
    SweepRunner runner(2);
    auto results = runner.run(items);
    const auto &s = runner.summary();

    EXPECT_EQ(s.runs, items.size());
    EXPECT_EQ(s.threads, 2u);
    EXPECT_GT(s.wallSeconds, 0.0);
    EXPECT_GT(s.runsPerSec(), 0.0);
    EXPECT_GT(s.instsPerSec(), 0.0);

    std::uint64_t insts = 0;
    double wall = 0;
    for (const auto &r : results) {
        insts += r.outcome.sim.committedInsts;
        wall += r.wallSeconds;
        EXPECT_GT(r.wallSeconds, 0.0);
    }
    EXPECT_EQ(s.instsCommitted, insts);
    EXPECT_NEAR(s.runSecondsTotal, wall, 1e-9);
}

} // namespace
