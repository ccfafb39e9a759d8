// Parameterized whole-pipeline sweeps: every (scheme, register-file
// size, pipeline shape) combination must commit exactly the
// architectural instruction stream, under fault storms, interrupt
// storms, and squash-heavy control flow.

#include <gtest/gtest.h>

#include "harness/experiment.hh"

namespace {

using namespace rrs;
using harness::RunConfig;

std::uint64_t
emulatedLength(const workloads::Workload &w, std::uint64_t cap)
{
    auto e = workloads::makeEmulator(w, cap);
    std::uint64_t start = e->instCount();
    e->run();
    return e->instCount() - start;
}

struct SweepPoint
{
    const char *workload;
    const char *scheme;   //!< rename-scheme registry key
    std::uint32_t regs;
};

// gtest prints a struct it has no printer for as raw bytes, here two
// load addresses, and gtest_discover_tests copies the printed value
// into the ctest name. Printing the fields keeps the names stable:
// CMake rewrites "/<index>  # GetParam() = <value>" to "/<value>",
// e.g. "Matrix/PipelineSweep.CommitsExactlyTheStream/int_sort_reuse_48".
void
PrintTo(const SweepPoint &p, std::ostream *os)
{
    *os << p.workload << '_' << p.scheme << '_' << p.regs;
}

class PipelineSweep : public ::testing::TestWithParam<SweepPoint>
{
};

TEST_P(PipelineSweep, CommitsExactlyTheStream)
{
    const auto &p = GetParam();
    const auto &w = workloads::workload(p.workload);
    const std::uint64_t cap = 40'000;
    std::uint64_t expected = emulatedLength(w, cap);

    RunConfig cfg = harness::schemeConfig(p.scheme, p.regs);
    cfg.maxInsts = cap;
    auto out = harness::runOn(w, cfg);
    EXPECT_EQ(out.sim.committedInsts, expected);
    EXPECT_GT(out.sim.ipc(), 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, PipelineSweep,
    ::testing::Values(
        SweepPoint{"int_sort", "baseline", 48},
        SweepPoint{"int_sort", "reuse", 48},
        SweepPoint{"int_hash", "reuse", 56},
        SweepPoint{"int_graph", "baseline", 64},
        SweepPoint{"int_graph", "reuse", 64},
        SweepPoint{"fp_matmul", "baseline", 48},
        SweepPoint{"fp_matmul", "reuse", 48},
        SweepPoint{"fp_nbody", "reuse", 56},
        SweepPoint{"fp_horner", "reuse", 112},
        SweepPoint{"media_adpcm", "reuse", 48},
        SweepPoint{"media_dct", "baseline", 96},
        SweepPoint{"media_dct", "reuse", 96},
        SweepPoint{"cog_gmm", "reuse", 72},
        SweepPoint{"cog_dnn", "baseline", 80},
        SweepPoint{"cog_dnn", "reuse", 80}));

TEST(PipelineStress, FaultStormStillExact)
{
    // One load in twenty faults: constant pipeline flushes with
    // shadow-cell recovery in the reuse scheme.
    const auto &w = workloads::workload("int_hash");
    std::uint64_t expected = emulatedLength(w, 30'000);
    for (const char *scheme : {"baseline", "reuse"}) {
        RunConfig cfg = harness::schemeConfig(scheme, 56);
        cfg.maxInsts = 30'000;
        cfg.core.loadFaultProbability = 0.05;
        auto out = harness::runOn(w, cfg);
        EXPECT_EQ(out.sim.committedInsts, expected);
        EXPECT_GT(out.exceptions, 10u);
    }
}

TEST(PipelineStress, InterruptStormStillExact)
{
    const auto &w = workloads::workload("fp_fir");
    std::uint64_t expected = emulatedLength(w, 30'000);
    RunConfig cfg = harness::reuseConfig(48);
    cfg.maxInsts = 30'000;
    cfg.core.interruptInterval = 600;   // flush every ~600 cycles
    auto out = harness::runOn(w, cfg);
    EXPECT_EQ(out.sim.committedInsts, expected);
}

TEST(PipelineStress, FaultsAndInterruptsTogether)
{
    const auto &w = workloads::workload("int_graph");
    std::uint64_t expected = emulatedLength(w, 25'000);
    RunConfig cfg = harness::reuseConfig(48);
    cfg.maxInsts = 25'000;
    cfg.core.loadFaultProbability = 0.02;
    cfg.core.interruptInterval = 1500;
    auto out = harness::runOn(w, cfg);
    EXPECT_EQ(out.sim.committedInsts, expected);
}

TEST(PipelineShape, NarrowAndWideCoresBothExact)
{
    const auto &w = workloads::workload("fp_jacobi");
    std::uint64_t expected = emulatedLength(w, 30'000);

    // Narrow: single-issue-ish machine.
    {
        RunConfig cfg = harness::reuseConfig(64);
        cfg.maxInsts = 30'000;
        cfg.core.fetchWidth = 1;
        cfg.core.renameWidth = 1;
        cfg.core.issueWidth = 1;
        cfg.core.commitWidth = 1;
        cfg.core.wbWidth = 2;
        auto out = harness::runOn(w, cfg);
        EXPECT_EQ(out.sim.committedInsts, expected);
        EXPECT_LE(out.sim.ipc(), 1.0 + 1e-9);
    }
    // Wide: 8-wide front end, deeper queues.
    {
        RunConfig cfg = harness::reuseConfig(112);
        cfg.maxInsts = 30'000;
        cfg.core.fetchWidth = 8;
        cfg.core.renameWidth = 8;
        cfg.core.issueWidth = 8;
        cfg.core.commitWidth = 8;
        cfg.core.wbWidth = 8;
        cfg.core.iqEntries = 96;
        auto out = harness::runOn(w, cfg);
        EXPECT_EQ(out.sim.committedInsts, expected);
    }
}

TEST(PipelineShape, TinyQueuesStillDrain)
{
    const auto &w = workloads::workload("int_crc");
    std::uint64_t expected = emulatedLength(w, 20'000);
    RunConfig cfg = harness::reuseConfig(48);
    cfg.maxInsts = 20'000;
    cfg.core.robEntries = 8;
    cfg.core.iqEntries = 4;
    cfg.core.loadQueueEntries = 2;
    cfg.core.storeQueueEntries = 2;
    cfg.core.fetchQueueEntries = 4;
    auto out = harness::runOn(w, cfg);
    EXPECT_EQ(out.sim.committedInsts, expected);
}

TEST(PipelineShape, MispredictPenaltySlowsBranchyCode)
{
    const auto &w = workloads::workload("int_sort");
    RunConfig fast = harness::baselineConfig(96);
    fast.maxInsts = 40'000;
    fast.core.mispredictPenalty = 1;
    RunConfig slow = fast;
    slow.core.mispredictPenalty = 40;
    auto of = harness::runOn(w, fast);
    auto os = harness::runOn(w, slow);
    EXPECT_GT(os.sim.cycles, of.sim.cycles);
}

TEST(PipelineShape, WrongPathPressureCostsRegisters)
{
    // With wrong-path modelling on, a small register file sees more
    // pressure than with it off (wrong-path instructions allocate).
    const auto &w = workloads::workload("int_sort");
    RunConfig on = harness::reuseConfig(48);
    on.maxInsts = 40'000;
    RunConfig off = on;
    off.core.modelWrongPath = false;
    auto o_on = harness::runOn(w, on);
    auto o_off = harness::runOn(w, off);
    EXPECT_EQ(o_on.sim.committedInsts, o_off.sim.committedInsts);
}

} // namespace
