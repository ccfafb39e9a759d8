// Tests for the O3 core's observer seam (obs/observer.hh): recording
// observers attached to hand-built cores check the event contract on a
// branchy kernel and on a run with load faults and timer interrupts,
// under both rename schemes — pipeline order per instruction, exactly
// one commit or squash per fetch, registration order across observers,
// and a simulated result that does not depend on being observed.  Two
// more cases pin core paths through their events: a flush whose ROB
// head is the run's first instruction, and store-to-load forwarding.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/o3core.hh"
#include "isa/assembler.hh"
#include "obs/observer.hh"
#include "rename/baseline.hh"
#include "rename/reuse.hh"
#include "workloads/workloads.hh"

namespace {

using namespace rrs;

// Data-dependent branches: mispredictions and wrong-path squashes.
const char *branchyProgram = R"(
    movz x1, #300
    movz x5, #2654435761
    movz x6, #0
loop:
    muli x5, x5, #6364136223846793005
    addi x5, x5, #1442695040888963407
    lsri x7, x5, #61
    andi x8, x7, #1
    beq x8, xzr, skip
    addi x6, x6, #1
skip:
    subi x1, x1, #1
    bne x1, xzr, loop
    halt
)";

// Loads and stores, for page-fault injection.
const char *memoryProgram = R"(
    .equ N, 1024
    movz x1, =buf
    movz x2, #N
    movz x3, #0
init:
    str x3, [x1]
    addi x1, x1, #8
    subi x2, x2, #1
    bne x2, xzr, init
    movz x1, =buf
    movz x2, #N
    movz x4, #0
sum:
    ldr x5, [x1]
    add x4, x4, x5
    addi x1, x1, #8
    subi x2, x2, #1
    bne x2, xzr, sum
    halt
    .data
buf:
    .space 8192
)";

// Each load reads the store just before it, whose data waits on two
// divides: the load issues once the store completes, and forwards.
const char *forwardProgram = R"(
    movz x1, #7
    movz x2, =buf
    movz x4, #40
    movz x6, #1
loop:
    div x1, x1, x6
    div x1, x1, x6
    str x1, [x2]
    ldr x3, [x2]
    subi x4, x4, #1
    bne x4, xzr, loop
    halt
    .data
buf:
    .space 8
)";

enum class Kind : std::uint8_t {
    Fetch, Rename, Issue, Complete, Commit, Squash,
    FlushYounger, FlushAll, Sample, EndRun,
};

struct Event
{
    int observer;
    Kind kind;
    std::uint64_t seq;
    Tick now;
    bool load = false;   //!< a fetched load (Fetch events only)

    bool
    sameAs(const Event &o) const
    {
        return kind == o.kind && seq == o.seq && now == o.now;
    }
};

/** Appends every event it sees to a log shared by all recorders. */
class Recorder : public obs::CoreObserver
{
  public:
    Recorder(int id, std::vector<Event> &log) : id(id), log(log) {}

    void
    fetch(std::uint64_t seq, const trace::DynInst &di, Tick now) override
    {
        add(Kind::Fetch, seq, now);
        log.back().load = isa::isLoad(di.si.op);
    }
    void
    rename(std::uint64_t seq, const obs::DestTag &, Tick now) override
    {
        add(Kind::Rename, seq, now);
    }
    void
    issue(std::uint64_t seq, Tick now) override
    {
        add(Kind::Issue, seq, now);
    }
    void
    complete(std::uint64_t seq, Tick now) override
    {
        add(Kind::Complete, seq, now);
    }
    void
    commit(std::uint64_t seq, const obs::DestTag &, Tick now) override
    {
        add(Kind::Commit, seq, now);
    }
    void
    squash(std::uint64_t seq, Tick now) override
    {
        add(Kind::Squash, seq, now);
    }
    void
    flush(obs::FlushScope scope, std::uint64_t seq, Tick now) override
    {
        add(scope == obs::FlushScope::Younger ? Kind::FlushYounger
                                              : Kind::FlushAll,
            seq, now);
    }
    void sample(Tick now) override { add(Kind::Sample, 0, now); }
    void endRun() override { add(Kind::EndRun, 0, 0); }

  private:
    void
    add(Kind kind, std::uint64_t seq, Tick now)
    {
        log.push_back(Event{id, kind, seq, now});
    }

    int id;
    std::vector<Event> &log;
};

struct ObservedRun
{
    core::SimResult result;
    obs::StallBreakdown stalls;
    std::uint64_t mispredicts = 0;
    std::uint64_t exceptions = 0;
    std::uint64_t interrupts = 0;
    std::vector<Event> log;
};

struct Case
{
    const char *name;
    const char *src;
    bool reuse;
    double loadFaultProbability;
    Cycles interruptInterval;
    Cycles forwardLat = 1;
};

/** Run one case on a hand-built core with `observers` recorders. */
ObservedRun
runCase(const Case &c, int observers)
{
    isa::Program p = isa::assemble(c.src);
    emu::Emulator e(p);
    trace::ReplayStream stream(workloads::capture(e, c.name, 1'000'000));
    mem::MemSystem mem{mem::MemSystemParams{}};
    bpred::BranchPredictor bp{bpred::BPredParams{}};
    std::unique_ptr<rename::Renamer> rn;
    if (c.reuse) {
        rn = std::make_unique<rename::ReuseRenamer>(
            rename::ReuseRenamerParams{});
    } else {
        rn = std::make_unique<rename::BaselineRenamer>(
            rename::BaselineParams{128, 128});
    }
    core::CoreParams cp;
    cp.loadFaultProbability = c.loadFaultProbability;
    cp.interruptInterval = c.interruptInterval;
    cp.fu.forwardLat = c.forwardLat;
    core::O3Core core(cp, *rn, mem, bp, stream);

    ObservedRun out;
    std::deque<Recorder> recorders;
    for (int i = 0; i < observers; ++i)
        core.addObserver(recorders.emplace_back(i, out.log));
    out.result = core.run();
    out.stalls = core.stallBreakdown();
    out.mispredicts = core.mispredictCount();
    out.exceptions = core.exceptionCount();
    out.interrupts = core.interruptCount();
    return out;
}

const Case cases[] = {
    {"branchy_baseline", branchyProgram, false, 0, 0},
    {"branchy_reuse", branchyProgram, true, 0, 0},
    {"faults_baseline", memoryProgram, false, 0.02, 1500},
    {"faults_reuse", memoryProgram, true, 0.02, 1500},
};

/** Per-instruction progress through the pipeline. */
struct InstState
{
    Kind last = Kind::Fetch;
    Tick lastTick = 0;
    bool done = false;
};

TEST(CoreObserver, EventsFollowThePipelineContract)
{
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        ObservedRun run = runCase(c, 1);
        const std::vector<Event> &log = run.log;
        ASSERT_FALSE(log.empty());

        std::map<std::uint64_t, InstState> insts;
        std::uint64_t commits = 0, squashes = 0, samples = 0;
        std::uint64_t flushYounger = 0, flushAll = 0;
        Tick prevTick = 0;
        for (std::size_t i = 0; i < log.size(); ++i) {
            const Event &e = log[i];
            if (e.kind == Kind::EndRun) {
                EXPECT_EQ(i + 1, log.size()) << "endRun must be last";
                continue;
            }
            // The whole stream is in cycle order.
            EXPECT_GE(e.now, prevTick) << "event " << i;
            prevTick = e.now;

            switch (e.kind) {
              case Kind::Sample:
                // One sample per simulated cycle, in order.
                EXPECT_EQ(e.now, samples);
                ++samples;
                continue;
              case Kind::FlushYounger:
                ++flushYounger;
                continue;
              case Kind::FlushAll:
                ++flushAll;
                continue;
              case Kind::Fetch:
                EXPECT_EQ(insts.count(e.seq), 0u)
                    << "seq " << e.seq << " fetched twice";
                insts[e.seq] = InstState{Kind::Fetch, e.now, false};
                continue;
              default:
                break;
            }

            auto it = insts.find(e.seq);
            ASSERT_NE(it, insts.end()) << "seq " << e.seq << " unfetched";
            InstState &st = it->second;
            EXPECT_FALSE(st.done) << "seq " << e.seq << " after its end";
            EXPECT_GE(e.now, st.lastTick) << "seq " << e.seq;
            switch (e.kind) {
              case Kind::Rename:
                EXPECT_EQ(st.last, Kind::Fetch) << "seq " << e.seq;
                break;
              case Kind::Issue:
                EXPECT_EQ(st.last, Kind::Rename) << "seq " << e.seq;
                break;
              case Kind::Complete:
                EXPECT_EQ(st.last, Kind::Issue) << "seq " << e.seq;
                break;
              case Kind::Commit:
                EXPECT_EQ(st.last, Kind::Complete) << "seq " << e.seq;
                st.done = true;
                ++commits;
                break;
              case Kind::Squash:
                st.done = true;
                ++squashes;
                break;
              default:
                ADD_FAILURE() << "unexpected event kind";
            }
            st.last = e.kind;
            st.lastTick = e.now;
        }

        EXPECT_EQ(log.back().kind, Kind::EndRun);
        // The run drains its stream: every fetch ends in exactly one
        // commit or squash, and the commits are the committed insts.
        for (const auto &[seq, st] : insts)
            EXPECT_TRUE(st.done) << "seq " << seq << " never left";
        EXPECT_EQ(commits + squashes, insts.size());
        EXPECT_EQ(commits, run.result.committedInsts);
        EXPECT_EQ(samples, run.result.cycles);
        EXPECT_GT(squashes, 0u);
        EXPECT_GT(flushYounger, 0u);
        if (c.interruptInterval > 0) {
            EXPECT_GT(run.exceptions, 0u);
            EXPECT_GT(run.interrupts, 0u);
            EXPECT_GT(flushAll, 0u);
        } else {
            // Without faults every rollback is a mispredict squash.
            EXPECT_EQ(flushAll, 0u);
            EXPECT_EQ(flushYounger, run.mispredicts);
        }
    }
}

TEST(CoreObserver, ObserversSeeOneSequenceInRegistrationOrder)
{
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        ObservedRun run = runCase(c, 2);
        const std::vector<Event> &log = run.log;
        ASSERT_EQ(log.size() % 2, 0u);
        for (std::size_t i = 0; i < log.size(); i += 2) {
            ASSERT_EQ(log[i].observer, 0) << "event " << i;
            ASSERT_EQ(log[i + 1].observer, 1) << "event " << i + 1;
            ASSERT_TRUE(log[i].sameAs(log[i + 1])) << "event " << i;
        }
    }
}

TEST(CoreObserver, ObservingNeverChangesTheResult)
{
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        ObservedRun bare = runCase(c, 0);
        ObservedRun watched = runCase(c, 2);
        EXPECT_EQ(bare.result.cycles, watched.result.cycles);
        EXPECT_EQ(bare.result.committedInsts,
                  watched.result.committedInsts);
        EXPECT_EQ(bare.result.committedOps, watched.result.committedOps);
        for (int k = 0; k < obs::numCycleCauses; ++k)
            EXPECT_EQ(bare.stalls.counts[k], watched.stalls.counts[k]);
        EXPECT_EQ(bare.mispredicts, watched.mispredicts);
        EXPECT_EQ(bare.exceptions, watched.exceptions);
        EXPECT_EQ(bare.interrupts, watched.interrupts);
    }
}

TEST(CoreObserver, FlushOfTheFirstInstructionSquashesRobThenFetchQueue)
{
    // The first timer interrupt lands while seq 0 is renamed but not
    // committed.  The flush squashes the ROB youngest first, seq 0
    // included, then the fetch queue oldest first, then reports its
    // Younger and All events.
    for (bool reuse : {false, true}) {
        SCOPED_TRACE(reuse ? "reuse" : "baseline");
        const Case c{"first_flush", branchyProgram, reuse, 0, 145};
        const std::vector<Event> log = runCase(c, 1).log;
        const auto all =
            std::find_if(log.begin(), log.end(), [](const Event &e) {
                return e.kind == Kind::FlushAll;
            });
        ASSERT_NE(all, log.end());
        auto first = all;
        while (first != log.begin() &&
               (first[-1].kind == Kind::Squash ||
                first[-1].kind == Kind::FlushYounger))
            --first;

        // What was in flight when the flush began.
        std::set<std::uint64_t> rob, fetchQueue;
        for (auto it = log.begin(); it != first; ++it) {
            if (it->kind == Kind::Fetch) {
                fetchQueue.insert(it->seq);
            } else if (it->kind == Kind::Rename) {
                fetchQueue.erase(it->seq);
                rob.insert(it->seq);
            } else if (it->kind == Kind::Commit ||
                       it->kind == Kind::Squash) {
                rob.erase(it->seq);
                fetchQueue.erase(it->seq);
            }
        }
        ASSERT_FALSE(rob.empty());
        ASSERT_EQ(*rob.begin(), 0u) << "seq 0 must head the ROB";
        ASSERT_FALSE(fetchQueue.empty());

        std::vector<std::string> expected;
        for (auto it = rob.rbegin(); it != rob.rend(); ++it)
            expected.push_back("squash " + std::to_string(*it));
        for (std::uint64_t seq : fetchQueue)
            expected.push_back("squash " + std::to_string(seq));
        expected.push_back("younger 0");
        expected.push_back("all 0");
        std::vector<std::string> got;
        for (auto it = first; it != all + 1; ++it) {
            const char *what = it->kind == Kind::Squash ? "squash "
                               : it->kind == Kind::FlushYounger
                                   ? "younger "
                                   : "all ";
            got.push_back(what + std::to_string(it->seq));
        }
        EXPECT_EQ(got, expected);
    }
}

TEST(CoreObserver, ForwardedLoadsCompleteForwardLatAfterIssue)
{
    for (Cycles lat : {Cycles{1}, Cycles{20}}) {
        for (bool reuse : {false, true}) {
            SCOPED_TRACE(testing::Message()
                         << "forwardLat " << lat << ", "
                         << (reuse ? "reuse" : "baseline"));
            const Case c{"forward", forwardProgram, reuse, 0, 0, lat};
            std::set<std::uint64_t> loads;
            std::map<std::uint64_t, Tick> issued, completed;
            int committedLoads = 0;
            for (const Event &e : runCase(c, 1).log) {
                if (e.kind == Kind::Fetch && e.load)
                    loads.insert(e.seq);
                else if (e.kind == Kind::Issue)
                    issued[e.seq] = e.now;
                else if (e.kind == Kind::Complete)
                    completed[e.seq] = e.now;
                else if (e.kind == Kind::Commit && loads.count(e.seq)) {
                    EXPECT_EQ(completed.at(e.seq) - issued.at(e.seq), lat)
                        << "load seq " << e.seq;
                    ++committedLoads;
                }
            }
            EXPECT_EQ(committedLoads, 40);
        }
    }
}

} // namespace
