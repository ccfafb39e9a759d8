// Statistical-equivalence tests for SMARTS-style sampled simulation
// (harness/sampling.hh): for every workload and both paper schemes,
// the sampled IPC estimate must land within its own reported 95%
// confidence interval of the exact run's IPC; sampled runs must stay
// deterministic across sweep thread counts; and the smoke sampling
// config must keep the detailed-simulation fraction small (that is the
// entire point of sampling).
//
// Exact mode is locked elsewhere: golden_table_test pins the fig11 and
// table3 text blocks byte-for-byte at 1/2/4 threads, so any sampled-
// mode change that leaked into the exact path would fail there.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "workloads/workloads.hh"

namespace {

using namespace rrs;
using namespace rrs::harness;

// Long enough that the exact run's cold-start ramp (which warmed
// sampled windows deliberately exclude) dilutes below the reported
// confidence interval.
constexpr std::uint64_t kCap = 200'000;

SamplingParams
testSampling()
{
    SamplingParams p;
    p.warm = 1024;
    p.detailed = 2048;
    p.period = 8192;
    p.fillInsts = 512;
    return p;
}

RunConfig
configFor(const std::string &scheme)
{
    RunConfig cfg = schemeConfig(scheme, 64);
    cfg.maxInsts = kCap;
    return cfg;
}

struct Case
{
    const char *workload;
    const char *scheme;
};

// gtest prints a struct it has no printer for as raw bytes, here two
// load addresses, and gtest_discover_tests copies the printed value
// into the ctest name. Printing the fields keeps the names stable:
// CMake rewrites "/<index>  # GetParam() = <value>" to "/<value>",
// e.g. "EveryWorkload/SampledVsExact.MeanIpcWithinReportedCi/int_sort_reuse".
void
PrintTo(const Case &c, std::ostream *os)
{
    *os << c.workload << '_' << c.scheme;
}

std::vector<Case>
allCases()
{
    std::vector<Case> cases;
    for (const auto &w : workloads::allWorkloads()) {
        cases.push_back({w.name.c_str(), "baseline"});
        cases.push_back({w.name.c_str(), "reuse"});
    }
    return cases;
}

const workloads::Workload &
workloadNamed(const char *name)
{
    for (const auto &w : workloads::allWorkloads()) {
        if (w.name == name)
            return w;
    }
    rrs_fatal("no workload '%s'", name);
}

class SampledVsExact : public ::testing::TestWithParam<Case>
{
};

TEST_P(SampledVsExact, MeanIpcWithinReportedCi)
{
    const Case &c = GetParam();
    const workloads::Workload &w = workloadNamed(c.workload);

    RunConfig exact = configFor(c.scheme);
    Outcome exactOut = runOn(w, exact);
    ASSERT_FALSE(exactOut.sampled.enabled);
    const double exactIpc = exactOut.sim.ipc();
    ASSERT_GT(exactIpc, 0.0);

    RunConfig sampled = configFor(c.scheme);
    sampled.sampling = testSampling();
    Outcome sampledOut = runOn(w, sampled);
    ASSERT_TRUE(sampledOut.sampled.enabled);
    const SampledSummary &sm = sampledOut.sampled;

    EXPECT_GT(sm.windows, 1u);
    EXPECT_GT(sm.meanIpc, 0.0);
    EXPECT_GT(sm.ci95Ipc, 0.0);
    EXPECT_NEAR(sm.meanIpc, exactIpc, sm.ci95Ipc)
        << "sampled IPC estimate outside its own 95% CI of the exact "
        << "run (" << sm.windows << " windows, stddev " << sm.stddevIpc
        << ")";

    // The estimate's supporting statistics must be self-consistent.
    EXPECT_GT(sm.detailedInsts, 0u);
    EXPECT_GT(sm.detailedCycles, 0u);
    EXPECT_EQ(sm.detailedInsts, sampledOut.sim.committedInsts);
    EXPECT_EQ(sm.detailedCycles, sampledOut.sim.cycles);
    EXPECT_GE(sm.medianIpc, 0.0);
    EXPECT_EQ(sampledOut.reportedIpc(), sm.meanIpc);
    EXPECT_EQ(exactOut.reportedIpc(), exactIpc);
}

INSTANTIATE_TEST_SUITE_P(EveryWorkload, SampledVsExact,
                         ::testing::ValuesIn(allCases()));

// The smoke config (the bench `--sample` defaults) must simulate at
// most 25% of the instructions in detail; that bound is the speedup
// the sampled CI job banks on.
TEST(Sampling, SmokeConfigDetailedFractionAtMost25Pct)
{
    SamplingParams smoke;
    smoke.warm = 2048;
    smoke.detailed = 1024;
    smoke.period = 8192;

    RunConfig cfg = configFor("baseline");
    cfg.maxInsts = 20'000;
    cfg.sampling = smoke;
    Outcome out = runOn(workloads::allWorkloads().front(), cfg);
    ASSERT_TRUE(out.sampled.enabled);
    EXPECT_LE(out.sampled.detailedFraction(), 0.25);
    EXPECT_GT(out.sampled.detailedFraction(), 0.0);
}

// Sampled runs are covered by the same determinism contract as exact
// ones: a sampled sweep returns bit-identical outcomes for every
// thread count.
TEST(Sampling, SampledSweepDeterministicAcrossThreads)
{
    const auto &ws = workloads::allWorkloads();
    std::vector<SweepItem> items;
    for (std::size_t i = 0; i < 4 && i < ws.size(); ++i) {
        RunConfig cfg = configFor(i % 2 ? "reuse" : "baseline");
        cfg.maxInsts = 20'000;
        cfg.sampling = testSampling();
        items.push_back(sweepItem(ws[i], cfg));
    }

    std::vector<std::vector<Outcome>> byThreads;
    for (unsigned threads : {1u, 2u, 4u}) {
        SweepRunner runner(threads);
        byThreads.push_back(runner.outcomes(items));
    }
    for (std::size_t t = 1; t < byThreads.size(); ++t) {
        ASSERT_EQ(byThreads[0].size(), byThreads[t].size());
        for (std::size_t i = 0; i < byThreads[0].size(); ++i) {
            const SampledSummary &a = byThreads[0][i].sampled;
            const SampledSummary &b = byThreads[t][i].sampled;
            EXPECT_TRUE(b.enabled);
            EXPECT_EQ(a.windows, b.windows) << "run " << i;
            EXPECT_EQ(a.meanIpc, b.meanIpc) << "run " << i;
            EXPECT_EQ(a.stddevIpc, b.stddevIpc) << "run " << i;
            EXPECT_EQ(a.ci95Ipc, b.ci95Ipc) << "run " << i;
            EXPECT_EQ(a.medianIpc, b.medianIpc) << "run " << i;
            EXPECT_EQ(a.detailedInsts, b.detailedInsts) << "run " << i;
            EXPECT_EQ(a.detailedCycles, b.detailedCycles) << "run " << i;
            EXPECT_EQ(a.warmInsts, b.warmInsts) << "run " << i;
            EXPECT_EQ(a.skippedInsts, b.skippedInsts) << "run " << i;
            EXPECT_EQ(byThreads[0][i].sim.committedInsts,
                      byThreads[t][i].sim.committedInsts) << "run " << i;
            EXPECT_EQ(byThreads[0][i].sim.cycles,
                      byThreads[t][i].sim.cycles) << "run " << i;
        }
    }
}

// Re-running the same sampled config in one process must reproduce the
// identical summary (the trace cache hands every run the same shared
// trace; the controller owns all its per-run state).
TEST(Sampling, SampledRunIsRepeatable)
{
    RunConfig cfg = configFor("reuse");
    cfg.maxInsts = 20'000;
    cfg.sampling = testSampling();
    const workloads::Workload &w = workloadNamed("int_hash");
    Outcome a = runOn(w, cfg);
    Outcome b = runOn(w, cfg);
    EXPECT_EQ(a.sampled.meanIpc, b.sampled.meanIpc);
    EXPECT_EQ(a.sampled.ci95Ipc, b.sampled.ci95Ipc);
    EXPECT_EQ(a.sim.cycles, b.sim.cycles);
    EXPECT_EQ(a.sim.committedInsts, b.sim.committedInsts);
}

// A trace that ends inside the first warm span used to run no detailed
// window and report IPC 0, which aborted every geomean above it.  The
// controller now warms only what leaves one window, so the rest runs in
// detail.
TEST(Sampling, TraceShorterThanWarmStillMeasuresAWindow)
{
    SamplingParams smoke;
    smoke.warm = 2048;
    smoke.detailed = 1024;
    smoke.period = 8192;

    for (const char *scheme : {"baseline", "reuse"}) {
        RunConfig cfg = configFor(scheme);
        cfg.maxInsts = 2'000;
        cfg.sampling = smoke;
        const Outcome out = runOn(workloadNamed("int_sort"), cfg);
        ASSERT_TRUE(out.sampled.enabled);
        EXPECT_GT(out.sampled.detailedInsts, 0u) << scheme;
        EXPECT_GT(out.sampled.meanIpc, 0.0) << scheme;
        EXPECT_EQ(out.sampled.warmInsts + out.sampled.detailedInsts +
                      out.sampled.skippedInsts,
                  2'000u)
            << scheme;
    }
}

} // namespace
