// Property test for the trace columns (trace/packed.hh): for every
// workload, every PackedTrace column and attribute bit must agree
// field-by-field with the DynInst records the emulator's step()
// produces — the columns are a pure re-encoding, never a
// reinterpretation.  The same columns must be what a ReplayStream
// serves, and again after re-construction.  A synthetic capture must
// hold the live generator's records the same way.

#include <gtest/gtest.h>

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

// Every column and attribute bit vs the records, one record at a time,
// against the OpInfo table (the packer's input).
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

        // Per-record bits stamped on top of the static ones.
        EXPECT_EQ(p.taken(i), di.taken) << i;
        EXPECT_EQ((m.attrs & isa::instattr::writesReg) != 0,
                  refWritesReg(di))
            << i;

        // Plain columns, seq included although it is not stored.
        EXPECT_EQ(p.seq(i), di.seq) << i;
        EXPECT_EQ(p.op(i), di.si.op) << i;
        EXPECT_EQ(p.pc(i), di.pc) << i;
        EXPECT_EQ(p.nextPc(i), di.nextPc) << i;
        EXPECT_EQ(p.effAddr(i), di.effAddr) << i;
        EXPECT_EQ(p.imm(i), di.si.imm) << i;
        EXPECT_EQ(fpBits(p.fimm(i)), fpBits(di.si.fimm)) << i;
        EXPECT_EQ(p.target(i), di.si.target) << i;

        // Operand lists round-trip through the register byte codec.
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
