// Unit tests for the functional emulator: arithmetic semantics, memory,
// control flow, trace records, and stream restartability.

#include <gtest/gtest.h>

#include "emu/emulator.hh"
#include "isa/assembler.hh"

namespace {

using namespace rrs;
using namespace rrs::isa;
using rrs::emu::Emulator;
using rrs::emu::SparseMemory;

Emulator
makeEmu(const Program &p, std::uint64_t cap = UINT64_MAX)
{
    return Emulator(p, cap);
}

TEST(SparseMemoryTest, ReadUnmappedIsZero)
{
    SparseMemory m;
    EXPECT_EQ(m.read(0x1234, 8), 0u);
    EXPECT_EQ(m.mappedPages(), 0u);
}

TEST(SparseMemoryTest, WriteReadRoundTrip)
{
    SparseMemory m;
    m.write(0x1000, 0xdeadbeefcafebabeULL, 8);
    EXPECT_EQ(m.read(0x1000, 8), 0xdeadbeefcafebabeULL);
    EXPECT_EQ(m.read(0x1000, 1), 0xbeu);
    EXPECT_EQ(m.read(0x1004, 4), 0xdeadbeefu);
}

TEST(SparseMemoryTest, CrossPageAccess)
{
    SparseMemory m;
    Addr a = SparseMemory::pageBytes - 4;
    m.write(a, 0x1122334455667788ULL, 8);
    EXPECT_EQ(m.read(a, 8), 0x1122334455667788ULL);
    EXPECT_EQ(m.mappedPages(), 2u);
}

TEST(EmulatorTest, Arithmetic)
{
    Program p = assemble(R"(
        movz x1, #10
        movz x2, #3
        add x3, x1, x2
        sub x4, x1, x2
        mul x5, x1, x2
        div x6, x1, x2
        rem x7, x1, x2
        halt
    )");
    auto e = makeEmu(p);
    e.run();
    EXPECT_EQ(e.intReg(3), 13u);
    EXPECT_EQ(e.intReg(4), 7u);
    EXPECT_EQ(e.intReg(5), 30u);
    EXPECT_EQ(e.intReg(6), 3u);
    EXPECT_EQ(e.intReg(7), 1u);
}

TEST(EmulatorTest, DivisionByZeroFollowsArmSemantics)
{
    Program p = assemble(R"(
        movz x1, #10
        movz x2, #0
        div x3, x1, x2
        rem x4, x1, x2
        halt
    )");
    auto e = makeEmu(p);
    e.run();
    EXPECT_EQ(e.intReg(3), 0u);
    EXPECT_EQ(e.intReg(4), 10u);
}

TEST(EmulatorTest, ZeroRegisterReadsZeroAndDiscardsWrites)
{
    Program p = assemble(R"(
        movz x1, #5
        add xzr, x1, x1
        add x2, xzr, x1
        halt
    )");
    auto e = makeEmu(p);
    e.run();
    EXPECT_EQ(e.intReg(zeroReg), 0u);
    EXPECT_EQ(e.intReg(2), 5u);
}

TEST(EmulatorTest, ShiftsAndLogic)
{
    Program p = assemble(R"(
        movz x1, #0xf0
        lsli x2, x1, #4
        lsri x3, x1, #4
        movz x4, #-16
        asri x5, x4, #2
        andi x6, x1, #0x30
        orri x7, x1, #0x0f
        eori x8, x1, #0xff
        halt
    )");
    auto e = makeEmu(p);
    e.run();
    EXPECT_EQ(e.intReg(2), 0xf00u);
    EXPECT_EQ(e.intReg(3), 0xfu);
    EXPECT_EQ(static_cast<std::int64_t>(e.intReg(5)), -4);
    EXPECT_EQ(e.intReg(6), 0x30u);
    EXPECT_EQ(e.intReg(7), 0xffu);
    EXPECT_EQ(e.intReg(8), 0x0fu);
}

TEST(EmulatorTest, LoadsAndStores)
{
    Program p = assemble(R"(
        .data
    buf:
        .word 0
        .text
        movz x1, =buf
        movz x2, #0x1234
        str x2, [x1]
        ldr x3, [x1]
        strb x2, [x1, #8]
        ldrb x4, [x1, #8]
        strw x2, [x1, #16]
        ldrw x5, [x1, #16]
        halt
    )");
    auto e = makeEmu(p);
    e.run();
    EXPECT_EQ(e.intReg(3), 0x1234u);
    EXPECT_EQ(e.intReg(4), 0x34u);
    EXPECT_EQ(e.intReg(5), 0x1234u);
}

TEST(EmulatorTest, DataSegmentLoaded)
{
    Program p = assemble(R"(
        .data
    arr:
        .word 42, 43
        .text
        movz x1, =arr
        ldr x2, [x1]
        ldr x3, [x1, #8]
        halt
    )");
    auto e = makeEmu(p);
    e.run();
    EXPECT_EQ(e.intReg(2), 42u);
    EXPECT_EQ(e.intReg(3), 43u);
}

TEST(EmulatorTest, FloatingPoint)
{
    Program p = assemble(R"(
        fmovi f1, #1.5
        fmovi f2, #2.0
        fadd f3, f1, f2
        fmul f4, f1, f2
        fmadd f5, f1, f2, f3
        movz x1, #9
        fcvt f6, x1
        fsqrt f7, f6
        fcvti x2, f7
        flt x3, f1, f2
        halt
    )");
    auto e = makeEmu(p);
    e.run();
    EXPECT_DOUBLE_EQ(e.fpReg(3), 3.5);
    EXPECT_DOUBLE_EQ(e.fpReg(4), 3.0);
    EXPECT_DOUBLE_EQ(e.fpReg(5), 6.5);
    EXPECT_DOUBLE_EQ(e.fpReg(7), 3.0);
    EXPECT_EQ(e.intReg(2), 3u);
    EXPECT_EQ(e.intReg(3), 1u);
}

TEST(EmulatorTest, LoopExecutesCorrectCount)
{
    // Sum 1..10.
    Program p = assemble(R"(
        movz x1, #10
        movz x2, #0
    loop:
        add x2, x2, x1
        subi x1, x1, #1
        bne x1, xzr, loop
        halt
    )");
    auto e = makeEmu(p);
    e.run();
    EXPECT_EQ(e.intReg(2), 55u);
}

TEST(EmulatorTest, CallAndReturn)
{
    Program p = assemble(R"(
        movz x1, #5
        bl double_it
        mov x3, x2
        halt
    double_it:
        add x2, x1, x1
        ret
    )");
    auto e = makeEmu(p);
    e.run();
    EXPECT_EQ(e.intReg(3), 10u);
}

TEST(EmulatorTest, IndirectJump)
{
    Program p = assemble(R"(
        movz x1, =dest
        br x1
        movz x2, #1
        halt
    dest:
        movz x2, #2
        halt
    )");
    auto e = makeEmu(p);
    e.run();
    EXPECT_EQ(e.intReg(2), 2u);
}

TEST(EmulatorTest, TraceRecordsBranchOutcomes)
{
    Program p = assemble(R"(
        movz x1, #2
    loop:
        subi x1, x1, #1
        bne x1, xzr, loop
        halt
    )");
    auto e = makeEmu(p);
    trace::DynInst di;
    std::vector<trace::DynInst> tr;
    while (e.step(di))
        tr.push_back(di);
    // movz, subi, bne(taken), subi, bne(not taken), halt
    ASSERT_EQ(tr.size(), 6u);
    EXPECT_TRUE(tr[2].taken);
    EXPECT_EQ(tr[2].nextPc, p.symbols.at("loop"));
    EXPECT_FALSE(tr[4].taken);
    EXPECT_EQ(tr[5].si.op, Opcode::Halt);
    // Sequence numbers are dense.
    for (std::size_t i = 0; i < tr.size(); ++i)
        EXPECT_EQ(tr[i].seq, i);
}

TEST(EmulatorTest, TraceRecordsEffectiveAddresses)
{
    Program p = assemble(R"(
        movz x1, =buf
        str x1, [x1, #8]
        ldr x2, [x1, #8]
        halt
        .data
    buf:
        .space 64
    )");
    auto e = makeEmu(p);
    trace::DynInst di;
    std::vector<trace::DynInst> tr;
    while (e.step(di))
        tr.push_back(di);
    Addr buf = p.symbols.at("buf");
    EXPECT_EQ(tr[1].effAddr, buf + 8);
    EXPECT_EQ(tr[2].effAddr, buf + 8);
}

TEST(EmulatorTest, InstructionCapEndsStream)
{
    Program p = assemble(R"(
    loop:
        b loop
    )");
    auto e = makeEmu(p, 100);
    EXPECT_EQ(e.run(), 100u);
    EXPECT_TRUE(e.halted());
}

TEST(EmulatorTest, StackPointerInitialised)
{
    Program p = assemble(R"(
        addi sp, sp, #-16
        str sp, [sp]
        halt
    )");
    auto e = makeEmu(p);
    e.run();
    EXPECT_EQ(e.intReg(28), stackBase - 16);
}

} // namespace
