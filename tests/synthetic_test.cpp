// Tests for the synthetic trace generator and the wrong-path
// synthesiser, including parameterised property sweeps verifying that
// requested statistics are actually delivered.

#include <gtest/gtest.h>

#include "trace/analysis.hh"
#include "trace/synthetic.hh"
#include "trace/wrongpath.hh"

namespace {

using namespace rrs;
using trace::SyntheticParams;
using trace::SyntheticStream;

TEST(Synthetic, ProducesRequestedLength)
{
    SyntheticParams sp;
    sp.numInsts = 1234;
    SyntheticStream s(sp);
    std::uint64_t n = 0;
    while (s.next())
        ++n;
    EXPECT_EQ(n, 1234u);
}

TEST(Synthetic, SameSeedReplaysIdentically)
{
    SyntheticParams sp;
    sp.numInsts = 5000;
    auto pcs = [&sp] {
        SyntheticStream s(sp);
        std::vector<Addr> out;
        while (auto di = s.next())
            out.push_back(di->pc);
        return out;
    };
    EXPECT_EQ(pcs(), pcs());
}

TEST(Synthetic, PcStaysInsideFootprint)
{
    SyntheticParams sp;
    sp.numInsts = 20000;
    sp.staticFootprint = 512;
    SyntheticStream s(sp);
    Addr end = isa::textBase + 512 * isa::instBytes;
    while (auto di = s.next()) {
        EXPECT_GE(di->pc, isa::textBase);
        EXPECT_LT(di->pc, end);
        EXPECT_GE(di->nextPc, isa::textBase);
        EXPECT_LT(di->nextPc, end);
    }
}

TEST(Synthetic, MixRoughlyMatchesRequest)
{
    SyntheticParams sp;
    sp.numInsts = 200000;
    sp.branchFraction = 0.10;
    sp.loadFraction = 0.25;
    sp.storeFraction = 0.10;
    SyntheticStream s(sp);
    std::uint64_t branches = 0, loads = 0, stores = 0, total = 0;
    while (auto di = s.next()) {
        ++total;
        if (di->isControl())
            ++branches;
        if (di->isLoad())
            ++loads;
        if (di->isStore())
            ++stores;
    }
    auto frac = [&](std::uint64_t n) {
        return static_cast<double>(n) / static_cast<double>(total);
    };
    EXPECT_NEAR(frac(branches), 0.10, 0.01);
    EXPECT_NEAR(frac(loads), 0.25, 0.01);
    EXPECT_NEAR(frac(stores), 0.10, 0.01);
}

/**
 * Property sweep: higher requested single-use fractions must produce
 * monotonically richer single-use statistics as measured by the
 * analyzer (exact equality is not promised; the knob is a target).
 */
class SyntheticSingleUse : public ::testing::TestWithParam<double>
{
};

TEST_P(SyntheticSingleUse, DeliversSingleUseValues)
{
    SyntheticParams sp;
    sp.numInsts = 150000;
    sp.singleUseFraction = GetParam();
    SyntheticStream s(sp);
    auto rep = trace::analyzeUsage(s, sp.numInsts);
    if (GetParam() == 0.0) {
        // With the knob off, chained single-use should be rare.
        EXPECT_LT(rep.fracSingleConsumer(), 0.35);
    } else {
        EXPECT_GT(rep.fracSingleConsumer(), 0.8 * GetParam() * 0.3);
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SyntheticSingleUse,
                         ::testing::Values(0.0, 0.2, 0.4, 0.6, 0.8));

TEST(Synthetic, SingleUseKnobIsMonotonic)
{
    double last = -1.0;
    for (double knob : {0.0, 0.3, 0.6, 0.9}) {
        SyntheticParams sp;
        sp.numInsts = 150000;
        sp.singleUseFraction = knob;
        SyntheticStream s(sp);
        auto rep = trace::analyzeUsage(s, sp.numInsts);
        double f = rep.fracSingleConsumer();
        EXPECT_GT(f, last) << "knob=" << knob;
        last = f;
    }
}

TEST(WrongPath, MimicsObservedMix)
{
    trace::WrongPathGenerator g(1, 64);
    // Observe a pure FP-multiply stream.
    trace::DynInst proto;
    proto.si.op = isa::Opcode::Fmul;
    proto.si.dest = isa::fpReg(1);
    proto.si.srcs[0] = isa::fpReg(2);
    proto.si.srcs[1] = isa::fpReg(3);
    for (int i = 0; i < 64; ++i)
        g.observe(proto);
    for (int i = 0; i < 100; ++i) {
        auto di = g.generate(0x5000, static_cast<InstSeqNum>(i));
        EXPECT_EQ(di.si.op, isa::Opcode::Fmul);
        EXPECT_EQ(di.nextPc, 0x5000u + isa::instBytes);
        EXPECT_FALSE(di.taken);
        EXPECT_TRUE(di.si.dest.valid());
    }
}

TEST(WrongPath, EmptyHistoryYieldsNops)
{
    trace::WrongPathGenerator g;
    auto di = g.generate(0x100, 0);
    EXPECT_EQ(di.si.op, isa::Opcode::Nop);
}

TEST(WrongPath, BranchTemplatesBecomeNotTaken)
{
    trace::WrongPathGenerator g(2, 8);
    trace::DynInst br;
    br.si.op = isa::Opcode::Bne;
    br.si.srcs[0] = isa::intReg(1);
    br.si.srcs[1] = isa::intReg(2);
    br.taken = true;
    for (int i = 0; i < 8; ++i)
        g.observe(br);
    auto di = g.generate(0x200, 1);
    EXPECT_EQ(di.si.op, isa::Opcode::Bne);
    EXPECT_FALSE(di.taken);
}

} // namespace
