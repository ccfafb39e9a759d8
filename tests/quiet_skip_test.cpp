// Skipping quiet cycles is invisible.  With no observer attached the
// core jumps its clock over every stretch of cycles that would change
// nothing and charges them in bulk; with any observer attached it runs
// every cycle.  Each case here runs twice, once each way, and every
// result must match: SimResult, the eight stall causes, mispredicts,
// exceptions, interrupts, recovery cycles, rename stalls, the scheme's
// counters and the sampled summary.
//
// The rig is built directly, as BM_CoreReplay builds it, not through
// harness::runOn: RRS_AUDIT and RRS_TELEMETRY attach observers there,
// which would switch the skip off on both sides.
//
// The deadlock watchdog's tests live here too: the skip caps its jump
// at the watchdog's deadline, so the panic names the same cycle either
// way.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>

#include "bpred/bpred.hh"
#include "core/o3core.hh"
#include "harness/experiment.hh"
#include "harness/sampling.hh"
#include "harness/tracecache.hh"
#include "mem/memsystem.hh"
#include "obs/observer.hh"
#include "pipeline_shapes.hh"
#include "rename/scheme.hh"
#include "trace/recorded.hh"
#include "trace/synthetic.hh"
#include "workloads/workloads.hh"

namespace {

using namespace rrs;
using harness::RunConfig;

/** Attaching any observer makes the core run every cycle. */
class NullObserver : public obs::CoreObserver
{
};

/** A run's input: a captured trace, or a synthetic generator setting. */
struct Input
{
    trace::TracePtr trace;          //!< replayed when set
    trace::SyntheticParams synth;   //!< generated otherwise
};

Input
kernel(const char *name, std::uint64_t cap)
{
    return {harness::traceCache().get(workloads::workload(name), cap), {}};
}

/** abl_synthetic's generator setting at a given single-use fraction. */
Input
synthetic(double singleUse)
{
    Input in;
    in.synth.numInsts = 20'000;
    in.synth.singleUseFraction = singleUse;
    in.synth.redefFraction = 0.8;
    in.synth.branchFraction = 0.06;
    in.synth.takenFraction = 0.98;
    in.synth.loadFraction = 0.15;
    in.synth.storeFraction = 0.05;
    return in;
}

/** Everything a run reports. */
struct Result
{
    core::SimResult sim;
    obs::StallBreakdown stalls;
    std::uint64_t mispredicts = 0;
    std::uint64_t exceptions = 0;
    std::uint64_t interrupts = 0;
    std::uint64_t recoveryCycles = 0;
    std::uint64_t renameStalls = 0;
    rename::SchemeCounters counters;
    harness::SampledSummary sampled;
    std::uint64_t skipped = 0;
};

/** One run of `in` on a fresh rig; `observed` attaches a NullObserver. */
Result
simulate(const Input &in, const RunConfig &cfg, bool observed)
{
    std::optional<trace::ReplayStream> replay;
    std::optional<trace::SyntheticStream> synth;
    trace::InstStream &stream =
        in.trace ? static_cast<trace::InstStream &>(replay.emplace(in.trace))
                 : synth.emplace(in.synth);
    mem::MemSystem mem{cfg.mem};
    bpred::BranchPredictor bp{cfg.bpred};
    const rename::RenameScheme &scheme = rename::renameScheme(cfg.scheme);
    std::unique_ptr<rename::Renamer> renamer =
        scheme.makeRenamer(cfg.rename);
    core::O3Core core(cfg.core, *renamer, mem, bp, stream);
    NullObserver null;
    if (observed)
        core.addObserver(null);

    Result r;
    if (cfg.sampling.enabled()) {
        harness::SamplingController sampler(cfg.sampling, core, *replay,
                                            mem, bp);
        r.sampled = sampler.run(r.sim);
    } else {
        r.sim = core.run();
    }
    r.stalls = core.stallBreakdown();
    r.mispredicts = core.mispredictCount();
    r.exceptions = core.exceptionCount();
    r.interrupts = core.interruptCount();
    r.recoveryCycles = core.recoveryCycleCount();
    r.renameStalls = core.renameStallCount();
    r.counters = scheme.counters(*renamer);
    r.skipped = core.skippedCycles();
    return r;
}

void
expectSame(const Result &a, const Result &b)
{
    EXPECT_EQ(a.sim.cycles, b.sim.cycles);
    EXPECT_EQ(a.sim.committedInsts, b.sim.committedInsts);
    EXPECT_EQ(a.sim.committedOps, b.sim.committedOps);
    for (int c = 0; c < obs::numCycleCauses; ++c) {
        EXPECT_EQ(a.stalls.counts[c], b.stalls.counts[c])
            << obs::cycleCauseName(static_cast<obs::CycleCause>(c));
    }
    EXPECT_EQ(a.mispredicts, b.mispredicts);
    EXPECT_EQ(a.exceptions, b.exceptions);
    EXPECT_EQ(a.interrupts, b.interrupts);
    EXPECT_EQ(a.recoveryCycles, b.recoveryCycles);
    EXPECT_EQ(a.renameStalls, b.renameStalls);
    EXPECT_EQ(a.counters.allocations, b.counters.allocations);
    EXPECT_EQ(a.counters.reuses, b.counters.reuses);
    EXPECT_EQ(a.counters.repairs, b.counters.repairs);
    EXPECT_EQ(a.counters.historyPeak, b.counters.historyPeak);
    EXPECT_EQ(a.counters.fig12.reuseCorrect, b.counters.fig12.reuseCorrect);
    EXPECT_EQ(a.counters.fig12.reuseWrong, b.counters.fig12.reuseWrong);
    EXPECT_EQ(a.counters.fig12.noReuseCorrect,
              b.counters.fig12.noReuseCorrect);
    EXPECT_EQ(a.counters.fig12.noReuseWrong, b.counters.fig12.noReuseWrong);
    EXPECT_EQ(a.sampled.enabled, b.sampled.enabled);
    EXPECT_EQ(a.sampled.windows, b.sampled.windows);
    EXPECT_EQ(a.sampled.meanIpc, b.sampled.meanIpc);
    EXPECT_EQ(a.sampled.stddevIpc, b.sampled.stddevIpc);
    EXPECT_EQ(a.sampled.ci95Ipc, b.sampled.ci95Ipc);
    EXPECT_EQ(a.sampled.medianIpc, b.sampled.medianIpc);
    EXPECT_EQ(a.sampled.detailedInsts, b.sampled.detailedInsts);
    EXPECT_EQ(a.sampled.detailedCycles, b.sampled.detailedCycles);
    EXPECT_EQ(a.sampled.warmInsts, b.sampled.warmInsts);
    EXPECT_EQ(a.sampled.skippedInsts, b.sampled.skippedInsts);
}

/**
 * Run `in` both ways and compare.  The skipping run must have skipped
 * something, so no case passes vacuously; the observed one never skips.
 * Returns the skipping run's skipped cycles.
 */
std::uint64_t
expectSkipInvisible(const Input &in, const RunConfig &cfg,
                    const std::string &label)
{
    SCOPED_TRACE(label);
    const Result skipping = simulate(in, cfg, false);
    const Result stepping = simulate(in, cfg, true);
    expectSame(skipping, stepping);
    EXPECT_GT(skipping.skipped, 0u);
    EXPECT_EQ(stepping.skipped, 0u);
    return skipping.skipped;
}

class QuietSkipSchemes : public ::testing::TestWithParam<std::string>
{
};

TEST_P(QuietSkipSchemes, EveryKernelAtThreeSizes)
{
    for (const workloads::Workload &w : workloads::allWorkloads()) {
        const Input in = kernel(w.name.c_str(), 2'000);
        for (std::uint32_t regs : {48u, 64u, 112u}) {
            RunConfig cfg = harness::schemeConfig(GetParam(), regs);
            cfg.maxInsts = 2'000;
            expectSkipInvisible(in, cfg,
                                w.name + "/" + std::to_string(regs));
        }
    }
}

TEST_P(QuietSkipSchemes, SyntheticSingleUseFractions)
{
    for (double f : {0.0, 0.4, 0.8}) {
        const RunConfig cfg = harness::schemeConfig(GetParam(), 48);
        expectSkipInvisible(synthetic(f), cfg,
                            "single-use " + std::to_string(f));
    }
}

TEST_P(QuietSkipSchemes, SampledFullLengthKernels)
{
    for (const char *name : {"int_hash", "fp_nbody"}) {
        RunConfig cfg = harness::schemeConfig(GetParam(), 64);
        cfg.sampling.warm = 2'048;
        cfg.sampling.detailed = 1'024;
        cfg.sampling.period = 16'384;
        expectSkipInvisible(kernel(name, 0), cfg, name);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Registered, QuietSkipSchemes,
    ::testing::ValuesIn(rename::registeredRenameSchemes()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

class QuietSkipShapes : public ::testing::TestWithParam<test::Shape>
{
};

TEST_P(QuietSkipShapes, PinnedKernelsBothSchemes)
{
    const test::Shape &shape = GetParam();
    for (const char *name : test::kShapeWorkloads) {
        const Input in = kernel(name, 20'000);
        for (const char *scheme : {"baseline", "reuse"}) {
            RunConfig cfg = harness::schemeConfig(scheme, 56);
            cfg.maxInsts = 20'000;
            shape.apply(cfg.core);
            expectSkipInvisible(in, cfg, std::string(name) + "/" + scheme);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Shapes, QuietSkipShapes,
                         ::testing::ValuesIn(test::kShapes));

// The skip count is deterministic; a change to the next-event search
// that skips less (or more) shows here before it shows in wall time.
TEST(QuietSkip, SkippedCyclesArePinned)
{
    RunConfig cfg = harness::schemeConfig("reuse", 64);
    cfg.maxInsts = 20'000;
    EXPECT_EQ(expectSkipInvisible(kernel("int_sort", 20'000), cfg,
                                  "int_sort"),
              7'712u);

    const RunConfig synth = harness::schemeConfig("reuse", 48);
    EXPECT_EQ(expectSkipInvisible(synthetic(0.4), synth, "synthetic 0.4"),
              98'746u);
}

/** int_sort on the reuse scheme at 64 registers, 20k instructions. */
RunConfig
watchdogConfig(Cycles threshold)
{
    RunConfig cfg = harness::schemeConfig("reuse", 64);
    cfg.maxInsts = 20'000;
    cfg.core.deadlockThreshold = threshold;
    return cfg;
}

// The watchdog counts commit-less cycles only while the ROB holds
// work: the first instruction into an empty ROB restarts it, so cold
// fetch time before the first rename is not "no commit".  At 30 cycles
// it still fires on the run's first long load, and on the same cycle
// whether the core skips quiet cycles or runs each one.
TEST(QuietSkipDeathTest, WatchdogFiresOnTheSameCycleEitherWay)
{
    const Input in = kernel("int_sort", 20'000);
    const RunConfig cfg = watchdogConfig(30);
    EXPECT_DEATH(simulate(in, cfg, false),
                 "core deadlock: no commit for 31 cycles; "
                 "head ldr x9, \\[x8, #0\\]");
    EXPECT_DEATH(simulate(in, cfg, true),
                 "core deadlock: no commit for 31 cycles; "
                 "head ldr x9, \\[x8, #0\\]");
}

TEST(QuietSkip, WatchdogSparesAHealthyColdStart)
{
    const Input in = kernel("int_sort", 20'000);
    const Result guarded = simulate(in, watchdogConfig(200), false);
    const Result free = simulate(in, watchdogConfig(1'000'000), false);
    EXPECT_EQ(guarded.sim.committedInsts, 20'000u);
    expectSame(guarded, free);
}

} // namespace
