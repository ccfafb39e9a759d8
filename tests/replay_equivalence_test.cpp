// Property test for the capture/replay layer: for every workload, a
// ReplayStream over a captured trace must produce exactly the DynInst
// sequence a fresh emulator stream produces — field by field — and
// must keep doing so under re-construction on the same shared trace.
// This is the cached-vs-fresh half of the sweep determinism contract
// (harness/sweep.hh).

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "trace/recorded.hh"
#include "workloads/workloads.hh"

namespace {

using namespace rrs;
using trace::DynInst;

constexpr std::uint64_t kCap = 20'000;

std::uint64_t
fpBits(double d)
{
    std::uint64_t raw;
    std::memcpy(&raw, &d, sizeof(raw));
    return raw;
}

bool
sameInst(const DynInst &a, const DynInst &b)
{
    return a.seq == b.seq && a.pc == b.pc && a.nextPc == b.nextPc &&
           a.taken == b.taken && a.effAddr == b.effAddr &&
           a.si.op == b.si.op && a.si.dest == b.si.dest &&
           a.si.srcs == b.si.srcs && a.si.imm == b.si.imm &&
           fpBits(a.si.fimm) == fpBits(b.si.fimm) &&
           a.si.target == b.si.target;
}

// Drain a stream into a vector.
std::vector<DynInst>
drain(trace::InstStream &stream)
{
    std::vector<DynInst> out;
    while (auto di = stream.next())
        out.push_back(*di);
    return out;
}

// Every record of a trace, rebuilt from its columns.
std::vector<DynInst>
records(const trace::RecordedTrace &t)
{
    std::vector<DynInst> out;
    for (std::size_t i = 0; i < t.size(); ++i)
        out.push_back(t[i]);
    return out;
}

std::uint64_t
digestOf(const std::vector<DynInst> &insts)
{
    std::uint64_t h = trace::RecordedTrace::digestSeed;
    for (const DynInst &di : insts)
        trace::RecordedTrace::foldInst(h, di);
    return h;
}

// Assert two sequences identical, reporting the first differing record.
void
expectSameSequence(const std::vector<DynInst> &ref,
                   const std::vector<DynInst> &got, const char *what)
{
    ASSERT_EQ(ref.size(), got.size()) << what;
    for (std::size_t i = 0; i < ref.size(); ++i) {
        if (!sameInst(ref[i], got[i])) {
            ADD_FAILURE() << what << ": first mismatch at record " << i
                          << ": emulator {seq=" << ref[i].seq
                          << " pc=" << ref[i].pc << " op "
                          << ref[i].si.toString() << "} vs replay {seq="
                          << got[i].seq << " pc=" << got[i].pc << " op "
                          << got[i].si.toString() << "}";
            return;
        }
    }
    // Belt and braces: the field-by-field digest must agree too (it
    // covers exactly the fields sameInst compares).
    EXPECT_EQ(digestOf(ref), digestOf(got)) << what;
}

class EveryWorkloadReplay : public ::testing::TestWithParam<const char *>
{
};

TEST_P(EveryWorkloadReplay, ReplayMatchesFreshEmulation)
{
    const auto &w = workloads::workload(GetParam());

    // The reference: a live emulator stream, pulled to the cap.
    auto fresh = workloads::makeEmulator(w, kCap);
    std::vector<DynInst> ref = drain(*fresh);
    ASSERT_FALSE(ref.empty());

    // The capture must match it record for record...
    trace::TracePtr t = workloads::captureTrace(w, kCap);
    EXPECT_EQ(t->workload(), w.name);
    EXPECT_EQ(t->cap(), kCap);
    EXPECT_EQ(t->sourceHash(), workloads::sourceHash(w));
    expectSameSequence(ref, records(*t), "captured trace");
    EXPECT_EQ(t->digest(), digestOf(ref));

    // ...as must a replay cursor over it,
    trace::ReplayStream replay(t);
    EXPECT_EQ(replay.name(), w.name);
    expectSameSequence(ref, drain(replay), "first replay");
    EXPECT_EQ(replay.replayed(), ref.size());

    // and a re-constructed cursor sharing the same trace.
    trace::ReplayStream rebuilt(t);
    expectSameSequence(ref, drain(rebuilt), "re-constructed replay");
}

INSTANTIATE_TEST_SUITE_P(
    Suite, EveryWorkloadReplay,
    ::testing::Values("int_sort", "int_hash", "int_crc", "int_sieve",
                      "int_match", "int_graph", "int_lz", "fp_matmul",
                      "fp_fir", "fp_jacobi", "fp_nbody", "fp_horner",
                      "fp_chain", "fp_blur", "media_adpcm", "media_dct",
                      "media_sobel", "media_g711", "cog_gmm", "cog_dnn",
                      "cog_knn"));

TEST(ReplayStream, FreshEmulatorsAgreeWithCapture)
{
    // Two independently constructed emulators and a capture must all
    // produce the same post-warmup stream (functional determinism, the
    // property the trace cache banks on).
    const auto &w = workloads::workload("int_crc");
    auto fresh = workloads::makeEmulator(w, 5'000);
    std::vector<DynInst> first = drain(*fresh);
    auto again = workloads::makeEmulator(w, 5'000);
    expectSameSequence(first, drain(*again), "fresh emulator pair");

    trace::TracePtr t = workloads::captureTrace(w, 5'000);
    expectSameSequence(first, records(*t), "capture");
}

TEST(ReplayStream, CaptureRecordDigestIsPinned)
{
    // The capture's output pinned to a constant: every field of every
    // record fp_fir emits up to the cap, folded by foldInst.  A change
    // to the emulator, the kernel source, the warmup or the packed
    // columns that alters any record moves it.
    trace::TracePtr t =
        workloads::captureTrace(workloads::workload("fp_fir"), 2'000);
    EXPECT_EQ(t->size(), 2'000u);
    EXPECT_EQ(t->digest(), 0x5a3158740d65b040ULL);
}

TEST(ReplayStream, CaptureSeesOnlyEmittedInstructions)
{
    // Capture must not record warmup (fast-forwarded) instructions:
    // the first captured seq equals the emulator's post-warmup
    // instruction count.
    const auto &w = workloads::workload("fp_fir");
    auto e = workloads::makeEmulator(w, 1'000);
    const std::uint64_t warmup = e->instCount();
    EXPECT_GT(warmup, 0u);

    trace::TracePtr t = workloads::captureTrace(w, 1'000);
    ASSERT_FALSE(t->empty());
    EXPECT_EQ((*t)[0].seq, warmup);
}

} // namespace
