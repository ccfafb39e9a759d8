// Property test for the trace layout (trace/packed.hh): for every
// workload, every PackedTrace accessor and attribute bit must agree
// field-by-field with the DynInst records the emulator's step()
// produces — the layout is a pure re-encoding, never a
// reinterpretation.  The same records must be what a ReplayStream
// serves, and again after re-construction.  A synthetic capture must
// hold the live generator's records the same way, a hand-built trace
// must survive the layout's corner cases, and the kernels' captures
// must stay inside a memory budget.

#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <vector>

#include "core/params.hh"
#include "harness/sweep.hh"
#include "trace/packed.hh"
#include "trace/recorded.hh"
#include "trace/synthetic.hh"
#include "workloads/workloads.hh"

namespace {

using namespace rrs;
using trace::DynInst;
using trace::PackedTrace;

constexpr std::uint64_t kCap = 20'000;

std::uint64_t
fpBits(double d)
{
    std::uint64_t raw;
    std::memcpy(&raw, &d, sizeof(raw));
    return raw;
}

std::vector<DynInst>
drain(trace::InstStream &stream)
{
    std::vector<DynInst> out;
    while (auto di = stream.next())
        out.push_back(*di);
    return out;
}

// The reference records: a fresh emulator, stepped to the cap.
std::vector<DynInst>
liveRecords(const workloads::Workload &w)
{
    auto e = workloads::makeEmulator(w, kCap);
    std::vector<DynInst> out;
    DynInst di;
    while (e->step(di))
        out.push_back(di);
    return out;
}

// The rename-allocation predicate, restated independently of the
// packer: an instruction allocates a physical register iff it has a
// dest and that dest is not the hardwired integer zero register.
bool
refWritesReg(const DynInst &di)
{
    return di.si.info().hasDest &&
           !(di.si.dest.cls == RegClass::Int &&
             di.si.dest.idx == isa::zeroReg);
}

// Every accessor and attribute bit vs the records, one record at a
// time, against the OpInfo table (the packer's input).
void
expectPackedMatchesRecords(const PackedTrace &p,
                           const std::vector<DynInst> &records)
{
    ASSERT_EQ(p.size(), records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        const DynInst &di = records[i];
        const isa::OpInfo &info = di.si.info();
        const isa::PackedMeta &m = p.meta(i);

        // Compact classifier bytes vs the authoritative OpInfo.
        EXPECT_EQ(m.cls, info.cls) << i;
        EXPECT_EQ(m.branch, info.branch) << i;
        EXPECT_EQ(m.memBytes, info.memBytes) << i;

        // Static attribute bits.
        EXPECT_EQ(m.isLoad(), di.si.load()) << i;
        EXPECT_EQ(m.isStore(), di.si.store()) << i;
        EXPECT_EQ(m.isControl(), di.si.control()) << i;
        EXPECT_EQ(m.hasDest(), info.hasDest) << i;

        // The record's taken bit and the entry's writesReg bit.
        EXPECT_EQ(p.taken(i), di.taken) << i;
        EXPECT_EQ((m.attrs & isa::instattr::writesReg) != 0,
                  refWritesReg(di))
            << i;

        // Plain fields, seq included although it is not stored.
        EXPECT_EQ(p.seq(i), di.seq) << i;
        EXPECT_EQ(p.op(i), di.si.op) << i;
        EXPECT_EQ(p.pc(i), di.pc) << i;
        EXPECT_EQ(p.nextPc(i), di.nextPc) << i;
        EXPECT_EQ(p.effAddr(i), di.effAddr) << i;
        EXPECT_EQ(p.imm(i), di.si.imm) << i;
        EXPECT_EQ(fpBits(p.fimm(i)), fpBits(di.si.fimm)) << i;
        EXPECT_EQ(p.target(i), di.si.target) << i;

        // Operand lists round-trip through the dictionary.
        EXPECT_EQ(p.dest(i), di.si.dest) << i;
        for (unsigned s = 0; s < 3; ++s)
            EXPECT_EQ(p.src(i, s), di.si.srcs[s]) << i << " src " << s;
    }
}

class EveryWorkloadPacked : public ::testing::TestWithParam<const char *>
{
};

TEST_P(EveryWorkloadPacked, ColumnsMatchRecords)
{
    const auto &w = workloads::workload(GetParam());
    const std::vector<DynInst> ref = liveRecords(w);
    trace::TracePtr t = workloads::captureTrace(w, kCap);
    ASSERT_FALSE(t->empty());
    expectPackedMatchesRecords(t->packed(), ref);

    // Packing is a pure function of the records: a trace built from
    // the same records as a vector has the same columns and digest.
    trace::RecordedTrace rebuilt(w.name, kCap, 0, ref);
    expectPackedMatchesRecords(rebuilt.packed(), ref);
    EXPECT_EQ(rebuilt.digest(), t->digest());
}

TEST_P(EveryWorkloadPacked, ReplayStreamServesPackedView)
{
    const auto &w = workloads::workload(GetParam());
    trace::TracePtr t = workloads::captureTrace(w, kCap);

    // A replay cursor serves the trace's columns record by record...
    trace::ReplayStream stream(t);
    expectPackedMatchesRecords(t->packed(), drain(stream));

    // ...and from a re-constructed cursor sharing the same columns.
    trace::ReplayStream rebuilt(t);
    expectPackedMatchesRecords(t->packed(), drain(rebuilt));
}

INSTANTIATE_TEST_SUITE_P(
    Suite, EveryWorkloadPacked,
    ::testing::Values("int_sort", "int_hash", "int_crc", "int_sieve",
                      "int_match", "int_graph", "int_lz", "fp_matmul",
                      "fp_fir", "fp_jacobi", "fp_nbody", "fp_horner",
                      "fp_chain", "fp_blur", "media_adpcm", "media_dct",
                      "media_sobel", "media_g711", "cog_gmm", "cog_dnn",
                      "cog_knn"));

// abl_synthetic's generator setting at single-use fraction f / 10.
trace::SyntheticParams
ablationParams(int f, std::uint64_t numInsts, std::uint64_t seed)
{
    trace::SyntheticParams sp;
    sp.seed = seed;
    sp.numInsts = numInsts;
    sp.singleUseFraction = f / 10.0;
    sp.redefFraction = 0.8;
    sp.branchFraction = 0.06;
    sp.takenFraction = 0.98;
    sp.loadFraction = 0.15;
    sp.storeFraction = 0.05;
    return sp;
}

class EverySyntheticFraction : public ::testing::TestWithParam<int>
{
};

// A synthetic capture holds exactly the live generator's records, at
// abl_synthetic's size (its five fractions) and at the benchmark's
// 5000 records seeded per fraction.
TEST_P(EverySyntheticFraction, CaptureMatchesGenerator)
{
    const int f = GetParam();
    std::vector<trace::SyntheticParams> cases = {ablationParams(
        f, 5'000, harness::sweepSeed(core::CoreParams{}.seed, f))};
    if (f % 2 == 0)
        cases.push_back(ablationParams(f, 120'000, 1));
    for (const trace::SyntheticParams &sp : cases) {
        SCOPED_TRACE(sp.numInsts);
        trace::SyntheticStream live(sp);
        const std::vector<DynInst> ref = drain(live);
        const trace::TracePtr t = trace::captureSynthetic(sp);
        EXPECT_EQ(t->workload(), "synthetic");
        EXPECT_EQ(t->cap(), sp.numInsts);
        expectPackedMatchesRecords(t->packed(), ref);
    }
}

INSTANTIATE_TEST_SUITE_P(Tenths, EverySyntheticFraction,
                         ::testing::Range(0, 9));

// Every field of two records, fimm by bit pattern.
void
expectSameRecord(const DynInst &got, const DynInst &want, std::size_t i)
{
    EXPECT_EQ(got.seq, want.seq) << i;
    EXPECT_EQ(got.pc, want.pc) << i;
    EXPECT_EQ(got.si.op, want.si.op) << i;
    EXPECT_EQ(got.si.dest, want.si.dest) << i;
    EXPECT_EQ(got.si.srcs, want.si.srcs) << i;
    EXPECT_EQ(got.si.imm, want.si.imm) << i;
    EXPECT_EQ(fpBits(got.si.fimm), fpBits(want.si.fimm)) << i;
    EXPECT_EQ(got.si.target, want.si.target) << i;
    EXPECT_EQ(got.nextPc, want.nextPc) << i;
    EXPECT_EQ(got.taken, want.taken) << i;
    EXPECT_EQ(got.effAddr, want.effAddr) << i;
}

DynInst
handInst(isa::Opcode op, Addr pc)
{
    DynInst di;
    di.pc = pc;
    di.si.op = op;
    di.nextPc = pc + isa::instBytes;
    return di;
}

// A hand-built trace at the layout's corners: static instructions that
// share a pc or a hint slot, fimm values that compare equal but differ
// in bits, next PCs off their prediction, addresses where the opcode
// has none and none where it has one, and both sparse columns present
// and absent around the 64-record block boundaries.
TEST(PackedTrace, HandBuiltCornersRoundTrip)
{
    using isa::Opcode;
    const Addr base = isa::textBase;
    std::vector<DynInst> in;

    // Filler: a load every fifth record at its own pc, ALU ops between.
    for (unsigned i = 0; i < 140; ++i) {
        const Addr pc = base + isa::instBytes * (i % 5);
        DynInst di = handInst(i % 5 == 0 ? Opcode::Ldr : Opcode::Addi, pc);
        di.si.dest = isa::intReg(static_cast<LogRegIndex>(1 + i % 5));
        di.si.srcs[0] = isa::intReg(1);
        di.si.imm = 8;
        if (i % 5 == 0)
            di.effAddr = 0x80000 + 8 * i;
        in.push_back(di);
    }

    // Two static instructions at one pc, interleaved.
    const Addr shared = base + 0x100;
    for (unsigned i = 0; i < 4; ++i) {
        in[i] = handInst(i % 2 ? Opcode::Sub : Opcode::Add, shared);
        in[i].si.dest = isa::intReg(2);
        in[i].si.srcs = {isa::intReg(3), isa::intReg(4), isa::RegId{}};
    }
    // Two pcs in one hint slot, one static instruction, interleaved.
    const Addr alias = base + 0x200;
    const Addr aliasTwin = alias + PackedTrace::hintSlots * isa::instBytes;
    for (unsigned i = 4; i < 8; ++i) {
        in[i] = handInst(Opcode::Mul, i % 2 ? aliasTwin : alias);
        in[i].si.dest = isa::intReg(5);
        in[i].si.srcs = {isa::intReg(6), isa::intReg(7), isa::RegId{}};
    }
    // +0.0, -0.0 and a NaN with a payload on otherwise equal fmovis.
    const double fimms[] = {0.0, -0.0,
                            std::bit_cast<double>(0x7ff8'0000'0000'1234ull)};
    for (unsigned i = 8; i < 14; ++i) {
        in[i] = handInst(Opcode::Fmovi, base + 0x300);
        in[i].si.dest = isa::fpReg(1);
        in[i].si.fimm = fimms[i % 3];
    }
    // A non-control record that does not fall through to pc + 4.
    in[14].nextPc = base;
    // A taken branch that does not land on its target.
    in[15] = handInst(Opcode::Bne, base + 0x400);
    in[15].si.srcs = {isa::intReg(1), isa::intReg(2), isa::RegId{}};
    in[15].si.target = base + 0x500;
    in[15].taken = true;
    in[15].nextPc = base + 0x508;
    // A branch not taken.
    in[16] = in[15];
    in[16].taken = false;
    in[16].nextPc = in[16].pc + isa::instBytes;
    // An address on a non-memory op, none on a load.
    in[17].si.op = Opcode::Add;
    in[17].effAddr = 0xdead0;
    in[18] = handInst(Opcode::Ldr, base + 0x600);
    in[18].si.dest = isa::intReg(9);
    in[18].si.srcs[0] = isa::intReg(1);

    // Around the block boundaries, each sparse column present at some
    // of records 62-65 and 127-129 and absent at the others.
    struct Edge
    {
        unsigned i;
        bool offPrediction;
        bool hasAddr;
    };
    for (const Edge &e : {Edge{62, false, true}, Edge{63, true, false},
                          Edge{64, true, true}, Edge{65, false, true},
                          Edge{127, true, false}, Edge{128, false, true},
                          Edge{129, true, true}}) {
        DynInst &di = in[e.i];
        di.nextPc = di.pc + (e.offPrediction ? 3 : 1) * isa::instBytes;
        di.effAddr = e.hasAddr ? 0x90000 + 8 * e.i : invalidAddr;
    }

    for (std::size_t i = 0; i < in.size(); ++i)
        in[i].seq = 1000 + i;

    const trace::RecordedTrace t("corners", in.size(), 0, in);
    const PackedTrace &p = t.packed();
    expectPackedMatchesRecords(p, in);
    std::uint64_t h = trace::RecordedTrace::digestSeed;
    for (std::size_t i = 0; i < in.size(); ++i) {
        expectSameRecord(p.record(i), in[i], i);
        trace::RecordedTrace::foldInst(h, in[i]);
    }
    EXPECT_EQ(t.digest(), h);
}

// The memory budget of a capture: the 21 kernels at their default caps
// hold at most 8 bytes per record (5.56 when the dictionary layout
// landed), and no kernel interns more static instructions than its text
// holds.  A change that widens a record fails here.
TEST(PackedTrace, KernelCapturesFitTheMemoryBudget)
{
    std::uint64_t bytes = 0, records = 0;
    for (const workloads::Workload &w : workloads::allWorkloads()) {
        const trace::TracePtr t = workloads::captureTrace(w, 0);
        bytes += t->packed().bytes();
        records += t->size();
        EXPECT_LE(t->packed().staticInsts(),
                  workloads::program(w).text.size())
            << w.name;
    }
    ASSERT_GT(records, 0u);
    EXPECT_LE(static_cast<double>(bytes) / static_cast<double>(records),
              8.0)
        << bytes << " bytes over " << records << " records";
}

TEST(PackedTrace, EmptyTracePacksToEmptyColumns)
{
    trace::RecordedTrace t("empty", 1, 0, std::vector<DynInst>{});
    EXPECT_TRUE(t.empty());
    EXPECT_TRUE(t.packed().empty());
    EXPECT_EQ(t.packed().size(), 0u);
    EXPECT_EQ(t.digest(), trace::RecordedTrace::digestSeed);
}

TEST(PackedTraceDeath, GappedRecordsAreRefused)
{
    // Columns store no seq: a record that does not continue the dense
    // numbering cannot be represented and must not be silently renumbered.
    std::vector<DynInst> gapped(2);
    gapped[0].seq = 10;
    gapped[1].seq = 12;
    EXPECT_DEATH({ trace::RecordedTrace t("gapped", 2, 0, gapped); },
                 "di.seq == firstSeq");
}

} // namespace
