// Unit tests for the value-usage analysis (the paper's Figures 1-3
// machinery), driven by hand-written programs whose usage statistics
// are known exactly.

#include <gtest/gtest.h>

#include "isa/assembler.hh"
#include "trace/analysis.hh"
#include "workloads/workloads.hh"

namespace {

using namespace rrs;
using rrs::trace::UsageReport;

UsageReport
analyze(const char *src, std::uint64_t maxInsts = 1'000'000)
{
    isa::Program p = isa::assemble(src);
    emu::Emulator e(p);
    return trace::analyzeUsage(*workloads::capture(e, "t", maxInsts));
}

TEST(UsageAnalysis, PaperFigure4Example)
{
    // The running example from the paper (Figure 4): I1,I4,I5,I6 form a
    // single-use chain on r1.  Written in rrsim assembly; x9 stands in
    // for r5 and memory ops are simplified.
    UsageReport rep = analyze(R"(
        movz x2, #7          ; init (produces x2 used by I1 and I8-ish)
        movz x3, #3
        movz x4, #5
        movz x6, =buf
        add x1, x2, x3       ; I1
        ldr x3, [x6]         ; I2
        mul x2, x3, x4       ; I3
        add x1, x1, x4       ; I4  sole consumer of I1's x1, redefines
        mul x1, x1, x1       ; I5  sole consumer of I4's x1, redefines
        mul x1, x1, x3       ; I6  sole consumer of I5's x1, redefines
        add x9, x1, x2       ; I7
        sub x2, x9, x1       ; I8
        halt
        .data
    buf:
        .word 11
    )");
    // I4, I5, I6 are sole consumers that redefine their source.
    EXPECT_EQ(rep.singleConsumerRedef, 3u);
    // I1 (of the movz-x2 value), I2 (of =buf), I7 (of I3's x2) and I8
    // (of I7's x9) are sole consumers that do not redefine.
    EXPECT_EQ(rep.singleConsumerOther, 4u);
    // Oracle reuse chains including the init instructions:
    // depths I1:1 I2:1 I4:2 I5:3 I6:4 I7:1 I8:2.
    EXPECT_EQ(rep.reusable[0], 4u);   // cap 1
    EXPECT_EQ(rep.reusable[1], 6u);   // cap 2
    EXPECT_EQ(rep.reusable[2], 6u);   // cap 3
    EXPECT_EQ(rep.reusable[3], 7u);   // unlimited
}

TEST(UsageAnalysis, SingleUseRedefCounted)
{
    // x1's value is consumed exactly once, by an instruction that also
    // redefines x1.
    UsageReport rep = analyze(R"(
        movz x1, #1
        addi x1, x1, #2
        halt
    )");
    EXPECT_EQ(rep.singleConsumerRedef, 1u);
    EXPECT_EQ(rep.singleConsumerOther, 0u);
}

TEST(UsageAnalysis, SingleUseOtherCounted)
{
    // x1's value is consumed exactly once by an instruction writing x2,
    // and x1 is later redefined (closing the value).
    UsageReport rep = analyze(R"(
        movz x1, #1
        add x2, x1, x1
        movz x1, #9
        halt
    )");
    EXPECT_EQ(rep.singleConsumerOther, 1u);
    EXPECT_EQ(rep.singleConsumerRedef, 0u);
}

TEST(UsageAnalysis, MultiConsumerNotCounted)
{
    UsageReport rep = analyze(R"(
        movz x1, #1
        add x2, x1, x1
        add x3, x1, x1
        movz x1, #0
        halt
    )");
    EXPECT_EQ(rep.singleConsumerRedef, 0u);
    EXPECT_EQ(rep.singleConsumerOther, 0u);
    // That x1 value had two consuming instructions.
    EXPECT_EQ(rep.consumersPerValue.at(2), 1u);
}

TEST(UsageAnalysis, SameRegTwiceIsOneConsumer)
{
    // mul x2, x1, x1 reads the same value twice but is ONE consumer.
    UsageReport rep = analyze(R"(
        movz x1, #3
        mul x2, x1, x1
        movz x1, #0
        halt
    )");
    EXPECT_EQ(rep.singleConsumerOther, 1u);
}

TEST(UsageAnalysis, ConsumerDistribution)
{
    UsageReport rep = analyze(R"(
        movz x1, #1     ; consumed 3 times
        add x2, x1, x1
        add x3, x1, x1
        add x4, x1, x1
        movz x1, #2     ; consumed once
        add x5, x1, x1
        movz x1, #3     ; never consumed
        movz x1, #4     ; closed at stream end, never consumed
        halt
    )");
    EXPECT_EQ(rep.consumersPerValue.at(3), 1u);
    EXPECT_GE(rep.consumersPerValue.at(0), 2u);
    EXPECT_GE(rep.valuesConsumed, 2u);
}

TEST(UsageAnalysis, StoreConsumerHasNoDestSoNoReuse)
{
    // The sole consumer is a store: counted for Fig 1/2 purposes as a
    // consumer, but it cannot reuse (no destination register).
    UsageReport rep = analyze(R"(
        movz x9, =buf
        movz x1, #5
        str x1, [x9]
        movz x1, #0
        halt
        .data
    buf:
        .space 8
    )");
    // No reuse opportunity is recorded for the store.
    EXPECT_EQ(rep.reusable[3], 0u);
}

TEST(UsageAnalysis, ChainCapsLimitReuse)
{
    // A chain of 5 single-use redefining instructions: depths 1..5.
    UsageReport rep = analyze(R"(
        movz x1, #1
        addi x1, x1, #1   ; depth 1
        addi x1, x1, #1   ; depth 2
        addi x1, x1, #1   ; depth 3
        addi x1, x1, #1   ; depth 4
        addi x1, x1, #1   ; depth 5
        halt
    )");
    EXPECT_EQ(rep.reusable[0], 3u);  // cap 1: depths restart 1,_,1,_,1
    EXPECT_EQ(rep.reusable[1], 4u);  // cap 2: 1,2,_,1,2
    EXPECT_EQ(rep.reusable[2], 4u);  // cap 3: 1,2,3,_,1
    EXPECT_EQ(rep.reusable[3], 5u);  // unlimited: all five
    // Depth decomposition of the unlimited run: 1,2,3,4,5 -> buckets
    // {1:1, 2:1, 3:1, >3:2}.
    EXPECT_EQ(rep.reuseDepthCounts[0], 1u);
    EXPECT_EQ(rep.reuseDepthCounts[1], 1u);
    EXPECT_EQ(rep.reuseDepthCounts[2], 1u);
    EXPECT_EQ(rep.reuseDepthCounts[3], 2u);
}

TEST(UsageAnalysis, ZeroRegisterIgnored)
{
    UsageReport rep = analyze(R"(
        add x1, xzr, xzr
        add xzr, x1, x1
        halt
    )");
    // Write to xzr is not a value; reads of xzr are not consumers.
    EXPECT_EQ(rep.destInsts, 1u);
}

TEST(UsageAnalysis, FractionsAreConsistent)
{
    UsageReport rep = analyze(R"(
        movz x1, #1
        addi x1, x1, #2
        addi x1, x1, #3
        add x2, x1, x1
        movz x1, #0
        halt
    )");
    EXPECT_NEAR(rep.fracSingleConsumer(),
                rep.fracSingleConsumerRedef() +
                    rep.fracSingleConsumerOther(),
                1e-12);
    double sum = 0;
    for (std::uint64_t k = 1; k <= 6; ++k)
        sum += rep.fracConsumers(k);
    EXPECT_NEAR(sum, 1.0, 1e-12);
    for (int cap = 0; cap < 3; ++cap)
        EXPECT_LE(rep.fracReusable(cap), rep.fracReusable(cap + 1));
}

TEST(UsageAnalysis, WindowCapRespected)
{
    UsageReport rep = analyze(R"(
    loop:
        addi x1, x1, #1
        b loop
    )", 1000);
    EXPECT_EQ(rep.totalInsts, 1000u);
}

} // namespace
