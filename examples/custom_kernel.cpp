/**
 * @file
 * Custom kernel walkthrough: write a kernel in rrsim assembly, verify
 * its architectural result with the functional emulator, measure its
 * value-usage character (the paper's Figures 1-3 statistics), and then
 * sweep it through timing simulations at several register-file sizes.
 *
 * Use this as the template for adding your own workloads.
 */

#include <cstdio>

#include "harness/experiment.hh"
#include "trace/analysis.hh"

using namespace rrs;

int
main()
{
    // A dot-product kernel with an init phase and a warmup_done marker
    // (the harness skips everything before the marker when timing).
    const char *source = R"(
        .equ N, 4096
        .data
    a:
        .space 32768
    b:
        .space 32768
    result:
        .space 8
        .text
    _start:
        movz x1, =a
        movz x2, #8192        ; fill both arrays
        movz x3, #42
    init:
        muli x3, x3, #6364136223846793005
        addi x3, x3, #1442695040888963407
        lsri x4, x3, #40
        fcvt f0, x4
        fmovi f1, #16777216.0
        fdiv f0, f0, f1
        fstr f0, [x1]
        addi x1, x1, #8
        subi x2, x2, #1
        bne x2, xzr, init
    warmup_done:
        movz x1, =a
        movz x2, =b
        movz x3, #N
        fmovi f2, #0.0        ; accumulator
    loop:
        fldr f3, [x1]
        fldr f4, [x2]
        fmadd f2, f3, f4, f2
        addi x1, x1, #8
        addi x2, x2, #8
        subi x3, x3, #1
        bne x3, xzr, loop
        fmovi f5, #1024.0
        fmul f2, f2, f5
        fcvti x4, f2
        movz x5, =result
        str x4, [x5]
        halt
    )";

    // An ad-hoc workload: the harness captures it past warmup_done
    // like any registry kernel.
    const workloads::Workload w{"dotprod", "custom", source, 120'000};
    const isa::Program &prog = workloads::program(w);

    // 1. Architectural verification with the emulator.
    emu::Emulator check(prog);
    check.run();
    std::printf("architectural result: %llu (scaled dot product)\n\n",
                static_cast<unsigned long long>(
                    check.memory().read(prog.symbol("result"), 8)));

    // 2. Value-usage character (Figures 1-3 statistics) of a
    //    100k-record capture.
    auto rep = trace::analyzeUsage(*workloads::captureTrace(w, 100'000));
    std::printf("single-consumer instructions: %.1f%% (redefining "
                "%.1f%%)\n",
                100.0 * rep.fracSingleConsumer(),
                100.0 * rep.fracSingleConsumerRedef());
    std::printf("oracle reuse with cap 3: %.1f%% of dest-writing "
                "instructions\n\n",
                100.0 * rep.fracReusable(2));

    // 3. Timing sweep via the ad-hoc route: reuse the harness's rig by
    //    registering nothing — we build configs directly and run the
    //    same workload through both renamers.
    std::printf("%-8s %-16s %-16s %s\n", "regs", "baseline IPC",
                "proposed IPC", "speedup");
    for (std::uint32_t n : {48u, 64u, 96u}) {
        auto cb = harness::baselineConfig(n);
        auto cp = harness::reuseConfig(n);
        auto ob = harness::runOn(w, cb);
        auto op = harness::runOn(w, cp);
        std::printf("%-8u %-16.3f %-16.3f %.3fx\n", n, ob.sim.ipc(),
                    op.sim.ipc(),
                    static_cast<double>(ob.sim.cycles) /
                        static_cast<double>(op.sim.cycles));
    }
    std::printf("\nNote how the usage analysis predicts the timing "
                "outcome: this kernel's accumulator is its only reuse "
                "chain (oracle reuse ~12%%), so sharing cannot offset "
                "the equal-area file's smaller register count — "
                "compare examples/quickstart, where ~36%% of "
                "allocations are avoided and the proposed scheme wins "
                "by >25%%.\n");
    return 0;
}
