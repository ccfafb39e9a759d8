/**
 * @file
 * Quickstart: assemble a small program, run it through the
 * out-of-order core with both renaming schemes, and compare.
 *
 *   $ ./examples/quickstart
 *
 * This is the smallest end-to-end use of the library: an assembly
 * kernel, the functional emulator as the instruction stream, the
 * Table I core, and the two renamers the paper compares.
 */

#include <cstdio>

#include "bpred/bpred.hh"
#include "core/o3core.hh"
#include "emu/emulator.hh"
#include "isa/assembler.hh"
#include "mem/memsystem.hh"
#include "rename/baseline.hh"
#include "rename/reuse.hh"

using namespace rrs;

int
main()
{
    // Several independent floating-point chains per iteration: enough
    // instruction-level parallelism to fill the machine, enough live
    // values to pressure a small register file, and plenty of
    // single-use values — the pattern the paper's scheme exploits.
    isa::Program prog = isa::assemble(R"(
        movz x1, #8000
        fmovi f0, #1.25
        fmovi f1, #0.75
    loop:
        fmul f2, f0, f1      ; six independent chains, each a
        fadd f2, f2, f0      ; single-use redefinition sequence
        fmul f2, f2, f1
        fmul f3, f1, f1
        fadd f3, f3, f0
        fmul f3, f3, f1
        fmul f4, f0, f0
        fadd f4, f4, f1
        fmul f4, f4, f1
        fmul f5, f1, f0
        fadd f5, f5, f0
        fmul f5, f5, f1
        fmul f6, f0, f1
        fadd f6, f6, f1
        fmul f6, f6, f0
        fmul f7, f1, f1
        fadd f7, f7, f0
        fmul f7, f7, f0
        subi x1, x1, #1
        bne x1, xzr, loop
        halt
    )");

    auto runWith = [&](rename::Renamer &renamer, const char *label) {
        emu::Emulator stream(prog, "quickstart");
        mem::MemSystem mem{mem::MemSystemParams{}};
        bpred::BranchPredictor bp{bpred::BPredParams{}};
        core::O3Core core(core::CoreParams{}, renamer, mem, bp, stream);
        core::SimResult res = core.run();
        std::printf("%-32s %8llu cycles   IPC %.3f\n", label,
                    static_cast<unsigned long long>(res.cycles),
                    res.ipc());
        return res;
    };

    std::printf("Running the same program under both renaming "
                "schemes\n");
    std::printf("(48 baseline registers vs the equal-area 4-bank "
                "organisation)\n\n");

    rename::BaselineRenamer baseline(rename::BaselineParams{48, 48});
    auto base = runWith(baseline, "baseline (48 regs/class)");

    rename::ReuseRenamerParams rp;
    rp.intBanks = {34, 8, 2, 2};   // equal area to 48 plain registers
    rp.fpBanks = {34, 8, 2, 2};
    rename::ReuseRenamer reuse(rp);
    auto prop = runWith(reuse, "proposed (34+8+2+2 banks)");

    std::printf("\nspeedup: %.3fx with %.0f%% of the register count\n",
                static_cast<double>(base.cycles) /
                    static_cast<double>(prop.cycles),
                100.0 * 46.0 / 48.0);
    std::printf("registers shared %llu times; fresh allocations "
                "avoided: %.1f%%\n",
                static_cast<unsigned long long>(reuse.reuseCount()),
                100.0 * static_cast<double>(reuse.reuseCount()) /
                    static_cast<double>(reuse.reuseCount() +
                                        reuse.allocationCount()));
    return 0;
}
