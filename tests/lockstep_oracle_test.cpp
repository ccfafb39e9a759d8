// Lockstep golden test: a timing run must commit exactly the captured
// architectural stream.
//
// The O3 core replays a trace captured from the functional emulator;
// wrong-path work is synthetic and squashed, and replays after a
// flush come from the core's internal buffer.  So every captured
// record must commit exactly once, in trace order: the (pc, effAddr)
// pairs in commit order equal the trace's.  And capture must leave
// the emulator exactly where a fresh, pure-functional run of the same
// workload to the same cap ends: every integer and fp register plus
// the memory image.

#include <gtest/gtest.h>

#include <cstring>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bpred/bpred.hh"
#include "core/o3core.hh"
#include "harness/experiment.hh"
#include "isa/isa.hh"
#include "mem/memsystem.hh"
#include "obs/observer.hh"
#include "rename/baseline.hh"
#include "rename/reuse.hh"
#include "workloads/workloads.hh"

namespace {

using namespace rrs;

constexpr std::uint64_t kInsts = 30'000;

using Access = std::pair<Addr, Addr>;   //!< (pc, effAddr)

std::uint64_t
fpBits(double d)
{
    std::uint64_t raw;
    std::memcpy(&raw, &d, sizeof(raw));
    return raw;
}

/** The (pc, effAddr) of every committed instruction, in commit order. */
class CommitLog : public obs::CoreObserver
{
  public:
    void
    fetch(std::uint64_t seq, const trace::DynInst &di, Tick) override
    {
        inFlight[seq] = {di.pc, di.effAddr};
    }

    void
    commit(std::uint64_t seq, const obs::DestTag &, Tick) override
    {
        auto it = inFlight.find(seq);
        ASSERT_NE(it, inFlight.end()) << "commit of unfetched " << seq;
        committed.push_back(it->second);
        inFlight.erase(it);
    }

    void
    squash(std::uint64_t seq, Tick) override
    {
        inFlight.erase(seq);
    }

    std::vector<Access> committed;

  private:
    std::unordered_map<std::uint64_t, Access> inFlight;
};

// Replay `w`'s capture through the timing core with the given renamer
// and check what commits; then compare the capturing emulator's final
// state against a functional oracle.
void
checkLockstep(const workloads::Workload &w, rename::Renamer &renamer)
{
    auto emulator = workloads::makeEmulator(w, kInsts);
    const trace::TracePtr captured = workloads::capture(
        *emulator, w.name, kInsts, workloads::sourceHash(w));
    trace::ReplayStream stream(captured);
    mem::MemSystem memsys{mem::MemSystemParams{}};
    bpred::BranchPredictor bp{bpred::BPredParams{}};
    core::O3Core core(core::CoreParams{}, renamer, memsys, bp, stream);
    CommitLog log;
    core.addObserver(log);
    auto sim = core.run();
    EXPECT_EQ(sim.committedInsts, captured->size());

    const trace::PackedTrace &pk = captured->packed();
    ASSERT_EQ(log.committed.size(), pk.size());
    for (std::size_t i = 0; i < pk.size(); ++i) {
        ASSERT_EQ(log.committed[i], Access(pk.pc(i), pk.effAddr(i)))
            << "commit " << i;
    }

    auto oracle = workloads::makeEmulator(w, kInsts);
    oracle->run();

    EXPECT_EQ(emulator->instCount(), oracle->instCount());
    EXPECT_EQ(emulator->halted(), oracle->halted());
    for (LogRegIndex r = 0; r < isa::numLogRegs; ++r) {
        EXPECT_EQ(emulator->intReg(r), oracle->intReg(r)) << "x" << int{r};
        EXPECT_EQ(fpBits(emulator->fpReg(r)), fpBits(oracle->fpReg(r)))
            << "f" << int{r};
    }
    EXPECT_EQ(emulator->memory().digest(), oracle->memory().digest());
    EXPECT_EQ(emulator->memory().mappedPages(),
              oracle->memory().mappedPages());
}

TEST(LockstepOracle, ReuseRenamerEveryWorkload)
{
    for (const auto &w : workloads::allWorkloads()) {
        SCOPED_TRACE(w.name);
        auto cfg = harness::reuseConfig(64);
        rename::ReuseRenamer renamer(cfg.rename.reuse);
        checkLockstep(w, renamer);
    }
}

TEST(LockstepOracle, BaselineRenamerEveryWorkload)
{
    for (const auto &w : workloads::allWorkloads()) {
        SCOPED_TRACE(w.name);
        rename::BaselineRenamer renamer(rename::BaselineParams{64, 64});
        checkLockstep(w, renamer);
    }
}

// The memory digest itself: order-independent, content-sensitive, and
// blind to pages that only ever held zeros (read()-equivalent states
// must digest equal).
TEST(MemoryDigest, ContentDefined)
{
    emu::SparseMemory a, b;
    a.write(0x1000, 0xdeadbeef, 8);
    a.write(0x200000, 42, 1);
    b.write(0x200000, 42, 1);
    b.write(0x1000, 0xdeadbeef, 8);
    EXPECT_EQ(a.digest(), b.digest());

    b.write(0x1000, 0xdeadbeee, 8);
    EXPECT_NE(a.digest(), b.digest());
}

TEST(MemoryDigest, ZeroPagesInvisible)
{
    emu::SparseMemory a, b;
    a.write(0x5000, 7, 1);
    b.write(0x5000, 7, 1);
    // Touch a page in `b` but leave it all-zero: reads are identical
    // to an unmapped page, so the digest must be too.
    b.write(0x9000, 0, 8);
    EXPECT_GT(b.mappedPages(), a.mappedPages());
    EXPECT_EQ(a.digest(), b.digest());
}

} // namespace
