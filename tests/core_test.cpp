// Integration tests for the O3 core: whole-pipeline runs over real
// programs with both renamers, misprediction recovery, exception
// injection, interrupts, and determinism.

#include <gtest/gtest.h>

#include "core/o3core.hh"
#include "isa/assembler.hh"
#include "rename/baseline.hh"
#include "rename/reuse.hh"
#include "trace/synthetic.hh"
#include "workloads/workloads.hh"

namespace {

using namespace rrs;

/** Everything one timing run needs, bundled. */
struct Rig
{
    mem::MemSystem mem{mem::MemSystemParams{}};
    bpred::BranchPredictor bp{bpred::BPredParams{}};

    core::SimResult
    run(rename::Renamer &rn, trace::InstStream &stream,
        core::CoreParams cp = core::CoreParams{})
    {
        core::O3Core core(cp, rn, mem, bp, stream);
        return core.run();
    }
};

const char *loopProgram = R"(
    movz x1, #2000
    movz x2, #0
loop:
    add x2, x2, x1
    muli x3, x1, #3
    add x4, x3, x2
    subi x1, x1, #1
    bne x1, xzr, loop
    halt
)";

// High register pressure: long independent chains of FP values.
const char *pressureProgram = R"(
    movz x1, #400
    fmovi f0, #1.0
    fmovi f1, #1.5
loop:
    fadd f2, f0, f1
    fmul f3, f2, f2
    fadd f4, f3, f1
    fmul f5, f4, f4
    fadd f6, f5, f1
    fmul f7, f6, f6
    fadd f8, f7, f1
    fmul f9, f8, f8
    fadd f10, f9, f0
    fmul f11, f10, f10
    fadd f12, f11, f0
    fsub f0, f12, f11
    subi x1, x1, #1
    bne x1, xzr, loop
    halt
)";

// Data-dependent branches: mispredictions guaranteed.
const char *branchyProgram = R"(
    movz x1, #3000
    movz x5, #2654435761
    movz x6, #0
loop:
    muli x5, x5, #6364136223846793005
    addi x5, x5, #1442695040888963407
    lsri x7, x5, #61
    andi x8, x7, #1
    beq x8, xzr, skip
    addi x6, x6, #1
skip:
    subi x1, x1, #1
    bne x1, xzr, loop
    halt
)";

const char *memoryProgram = R"(
    .equ N, 2048
    movz x1, =buf
    movz x2, #N
    movz x3, #0
init:
    str x3, [x1]
    addi x1, x1, #8
    subi x2, x2, #1
    bne x2, xzr, init
    movz x1, =buf
    movz x2, #N
    movz x4, #0
sum:
    ldr x5, [x1]
    add x4, x4, x5
    addi x1, x1, #8
    subi x2, x2, #1
    bne x2, xzr, sum
    halt
    .data
buf:
    .space 16384
)";

core::SimResult
runProgram(const char *src, rename::Renamer &rn,
           core::CoreParams cp = core::CoreParams{})
{
    static std::map<const char *, trace::TracePtr> cache;
    auto it = cache.find(src);
    if (it == cache.end()) {
        isa::Program p = isa::assemble(src);
        emu::Emulator e(p);
        it = cache.emplace(src, workloads::capture(e, "prog", 1'000'000))
                 .first;
    }
    trace::ReplayStream stream(it->second);
    Rig rig;
    return rig.run(rn, stream, cp);
}

TEST(O3Core, CommitsEveryInstructionBaseline)
{
    isa::Program p = isa::assemble(loopProgram);
    emu::Emulator counter(p);
    std::uint64_t n = counter.run();

    rename::BaselineRenamer rn(rename::BaselineParams{128, 128});
    auto res = runProgram(loopProgram, rn);
    EXPECT_EQ(res.committedInsts, n);
    EXPECT_GT(res.ipc(), 0.5);
    EXPECT_LT(res.ipc(), 3.01);
}

TEST(O3Core, CommitsEveryInstructionReuse)
{
    isa::Program p = isa::assemble(loopProgram);
    emu::Emulator counter(p);
    std::uint64_t n = counter.run();

    rename::ReuseRenamer rn(rename::ReuseRenamerParams{});
    auto res = runProgram(loopProgram, rn);
    EXPECT_EQ(res.committedInsts, n);
    EXPECT_GT(res.ipc(), 0.5);
}

TEST(O3Core, ReuseHelpsUnderRegisterPressure)
{
    // Baseline with a tiny FP register file.
    rename::BaselineRenamer base(rename::BaselineParams{128, 40});
    auto res_base = runProgram(pressureProgram, base);

    // Proposed with an equal-ish (actually smaller) total register
    // count but shadow-cell banks.
    rename::ReuseRenamerParams rp;
    rp.intBanks = {116, 4, 4, 4};
    rp.fpBanks = {28, 4, 4, 4};
    rename::ReuseRenamer reuse(rp);
    auto res_reuse = runProgram(pressureProgram, reuse);

    EXPECT_EQ(res_base.committedInsts, res_reuse.committedInsts);
    // Sharing must not be slower under pressure; typically faster.
    EXPECT_GE(res_base.cycles, res_reuse.cycles * 95 / 100);
}

TEST(O3Core, LargeRegisterFileClosesTheGap)
{
    rename::BaselineRenamer base(rename::BaselineParams{128, 128});
    auto res_base = runProgram(pressureProgram, base);
    rename::ReuseRenamer reuse(rename::ReuseRenamerParams{});
    auto res_reuse = runProgram(pressureProgram, reuse);
    // With ample registers both should perform comparably (within 10%).
    double ratio = static_cast<double>(res_reuse.cycles) /
                   static_cast<double>(res_base.cycles);
    EXPECT_GT(ratio, 0.9);
    EXPECT_LT(ratio, 1.1);
}

TEST(O3Core, BranchyCodeRunsAndMispredicts)
{
    rename::BaselineRenamer rn(rename::BaselineParams{128, 128});
    isa::Program p = isa::assemble(branchyProgram);
    emu::Emulator e(p);
    trace::ReplayStream stream(workloads::capture(e, "branchy", 1'000'000));
    mem::MemSystem mem{mem::MemSystemParams{}};
    bpred::BranchPredictor bp{bpred::BPredParams{}};
    core::CoreParams cp;
    core::O3Core core(cp, rn, mem, bp, stream);
    auto res = core.run();

    emu::Emulator counter(p);
    EXPECT_EQ(res.committedInsts, counter.run());
    // The PRNG-driven branch is unpredictable: expect mispredictions
    // and therefore a visibly lower IPC than the loop program.
    EXPECT_LT(res.ipc(), 2.5);
}

TEST(O3Core, MemoryProgramExercisesCaches)
{
    rename::BaselineRenamer rn(rename::BaselineParams{128, 128});
    auto res = runProgram(memoryProgram, rn);
    isa::Program p = isa::assemble(memoryProgram);
    emu::Emulator counter(p);
    EXPECT_EQ(res.committedInsts, counter.run());
}

TEST(O3Core, WrongPathOffStillCorrect)
{
    core::CoreParams cp;
    cp.modelWrongPath = false;
    rename::ReuseRenamer rn(rename::ReuseRenamerParams{});
    auto res = runProgram(branchyProgram, rn, cp);
    isa::Program p = isa::assemble(branchyProgram);
    emu::Emulator counter(p);
    EXPECT_EQ(res.committedInsts, counter.run());
}

TEST(O3Core, ExceptionInjectionRecoversPrecisely)
{
    core::CoreParams cp;
    cp.loadFaultProbability = 0.01;
    rename::ReuseRenamer rn(rename::ReuseRenamerParams{});
    auto res = runProgram(memoryProgram, rn, cp);
    isa::Program p = isa::assemble(memoryProgram);
    emu::Emulator counter(p);
    // Every instruction still commits exactly once.
    EXPECT_EQ(res.committedInsts, counter.run());

    // And the run with faults takes longer than without.
    rename::ReuseRenamer rn2(rename::ReuseRenamerParams{});
    auto res_nofault = runProgram(memoryProgram, rn2);
    EXPECT_GT(res.cycles, res_nofault.cycles);
}

TEST(O3Core, TimerInterruptsFlushAndReplay)
{
    core::CoreParams cp;
    cp.interruptInterval = 5000;
    rename::ReuseRenamer rn(rename::ReuseRenamerParams{});
    auto res = runProgram(loopProgram, rn, cp);
    isa::Program p = isa::assemble(loopProgram);
    emu::Emulator counter(p);
    EXPECT_EQ(res.committedInsts, counter.run());
}

TEST(O3Core, DeterministicAcrossRuns)
{
    for (auto which : {0, 1}) {
        std::uint64_t c1, c2;
        {
            rename::ReuseRenamer rn(rename::ReuseRenamerParams{});
            c1 = runProgram(which ? branchyProgram : pressureProgram, rn)
                     .cycles;
        }
        {
            rename::ReuseRenamer rn(rename::ReuseRenamerParams{});
            c2 = runProgram(which ? branchyProgram : pressureProgram, rn)
                     .cycles;
        }
        EXPECT_EQ(c1, c2);
    }
}

TEST(O3Core, MaxInstsCapStopsEarly)
{
    core::CoreParams cp;
    cp.maxInsts = 500;
    rename::BaselineRenamer rn(rename::BaselineParams{128, 128});
    auto res = runProgram(loopProgram, rn, cp);
    EXPECT_EQ(res.committedInsts, 500u);
}

TEST(O3Core, SyntheticStreamRuns)
{
    trace::SyntheticParams sp;
    sp.numInsts = 20000;
    trace::ReplayStream stream(trace::captureSynthetic(sp));
    rename::ReuseRenamer rn(rename::ReuseRenamerParams{});
    mem::MemSystem mem{mem::MemSystemParams{}};
    bpred::BranchPredictor bp{bpred::BPredParams{}};
    core::O3Core core(core::CoreParams{}, rn, mem, bp, stream);
    auto res = core.run();
    EXPECT_EQ(res.committedInsts, 20000u);
    EXPECT_GT(res.ipc(), 0.1);
}

TEST(O3Core, TinyRegisterFileStillMakesProgress)
{
    // The smallest Table III configuration.
    rename::ReuseRenamerParams rp;
    rp.intBanks = {33, 4, 4, 4};
    rp.fpBanks = {28, 4, 4, 4};
    rename::ReuseRenamer rn(rp);
    auto res = runProgram(pressureProgram, rn);
    isa::Program p = isa::assemble(pressureProgram);
    emu::Emulator counter(p);
    EXPECT_EQ(res.committedInsts, counter.run());
}

TEST(O3Core, BaselineTinyRegisterFileStillMakesProgress)
{
    rename::BaselineRenamer rn(rename::BaselineParams{48, 48});
    auto res = runProgram(pressureProgram, rn);
    isa::Program p = isa::assemble(pressureProgram);
    emu::Emulator counter(p);
    EXPECT_EQ(res.committedInsts, counter.run());
}

} // namespace
