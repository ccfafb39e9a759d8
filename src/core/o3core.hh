/**
 * @file
 * The out-of-order core timing model.
 *
 * A trace-driven (execute-at-fetch) O3 model in the style the paper's
 * gem5 setup provides: 3-wide front end feeding a rename stage
 * (pluggable: baseline or physical-register-sharing), a unified issue
 * queue with versioned-tag wakeup, a ROB, split load/store queues with
 * store-to-load forwarding, a functional-unit pool, and in-order
 * commit.
 *
 * Speculation: branches are predicted at fetch; a mispredicted branch
 * switches fetch to a *synthetic wrong path* (statistically matched to
 * recent code) whose instructions allocate registers, occupy queue
 * entries and execute, and are squashed when the branch resolves —
 * preserving the wrong-path register pressure the paper's mechanism
 * interacts with.  Squashes roll the renamer back through its history
 * buffer; shadow-cell recover commands are charged as extra redirect
 * cycles.  Page-fault injection and timer interrupts exercise the
 * precise-exception recovery path (commit-time flush + shadow
 * recovery).
 */

#ifndef RRS_CORE_O3CORE_HH
#define RRS_CORE_O3CORE_HH

#include <deque>
#include <functional>
#include <vector>

#include "bpred/bpred.hh"
#include "common/random.hh"
#include "core/params.hh"
#include "mem/memsystem.hh"
#include "obs/observer.hh"
#include "obs/stallcause.hh"
#include "rename/renamer.hh"
#include "trace/dyninst.hh"
#include "trace/wrongpath.hh"

namespace rrs::core {

/** The core. */
class O3Core
{
  public:
    /**
     * @param params   pipeline configuration
     * @param renamer  baseline or reuse renamer (owned by the caller)
     * @param mem      memory hierarchy (owned by the caller)
     * @param bp       branch predictor (owned by the caller)
     * @param stream   correct-path dynamic instruction source
     */
    O3Core(const CoreParams &params, rename::Renamer &renamer,
           mem::MemSystem &mem, bpred::BranchPredictor &bp,
           trace::InstStream &stream);

    // The renamer callback tagProduced captures `this`.
    O3Core(const O3Core &) = delete;
    O3Core &operator=(const O3Core &) = delete;

    /** Run the stream to completion; returns timing results. */
    SimResult run();

    // --- windowed-mode hooks (harness/sampling.hh) ------------------
    //
    // A SamplingController alternates functional-warm spans with
    // detailed windows on one long-lived core, so predictor and cache
    // state carry across windows.  Exact mode never calls any of
    // these; run() alone is bit-identical to the pre-sampling core.

    /** The current cycle (absolute across windowed runs). */
    Tick nowTick() const { return now; }

    /**
     * Run until `insts` more instructions commit (or the stream
     * drains).  Unlike run(), the returned cycles field is the
     * *delta* spent in this window, not the absolute clock.
     */
    SimResult runWindow(std::uint64_t insts);

    /**
     * Throw away everything in flight (ROB, IQ, fetch queue, stream
     * lookahead) without refetching it, leaving the renamer rolled
     * back and the core ready to fetch from wherever the stream cursor
     * is moved next.  The caller must re-seek the stream to the commit
     * point: in-flight instructions were consumed but never committed.
     */
    void discardInFlight();

    /**
     * Jump the clock forward to `to` (a functional-warm span elapsed).
     * Keeps the interrupt schedule and deadlock watchdog in sync so a
     * jump is never mistaken for a stall.
     */
    void advanceClock(Tick to);

    /**
     * Register an observer (obs/observer.hh): the pipe tracer, the
     * flight recorder, the rename auditor and the harness samplers all
     * attach here.  Observers are called in registration order; the
     * core does not own them and they never change the simulated
     * result.  With none registered every hook site is one never-taken
     * emptiness check.  While any is registered the core skips no
     * quiet cycle, so `sample` arrives once per simulated cycle.  Call
     * before run().
     */
    void addObserver(obs::CoreObserver &o) { observers.push_back(&o); }

    /** Committed-IPC of the finished run. */
    const SimResult &result() const { return simResult; }

    /** Per-cause cycle accounting of the finished run (obs layer). */
    obs::StallBreakdown stallBreakdown() const
    {
        return cycleCauses.breakdown();
    }

    // --- structural occupancies, read by sampling observers ---
    std::uint32_t robSize() const
    {
        return static_cast<std::uint32_t>(robTail - robHead);
    }
    std::uint32_t iqSize() const
    {
        return static_cast<std::uint32_t>(iq.size());
    }
    std::uint32_t lsqSize() const
    {
        return loadsInFlight + static_cast<std::uint32_t>(stores.size());
    }

    /** Aggregate counters for reports. */
    std::uint64_t mispredictCount() const { return branchMispredicts; }
    std::uint64_t exceptionCount() const { return exceptionsTaken; }
    std::uint64_t interruptCount() const { return interruptsTaken; }
    std::uint64_t recoveryCycleCount() const { return recoveryCycles; }
    /** Cycles in which rename stalled for lack of a free register. */
    std::uint64_t renameStallCount() const { return renameStalls; }

    /**
     * Quiet cycles charged in bulk instead of run one by one (DESIGN
     * §4k); the loop ran `cycles - skippedCycles()` iterations.
     */
    std::uint64_t skippedCycles() const { return skipped; }

  private:
    /**
     * One in-flight instruction: a ring slot, written once by fetch.
     * `di.seq` is the fetch number observers see; `pred` is meaningful
     * only for control instructions and `rr` only once renamed.
     */
    struct InFlight
    {
        trace::DynInst di;
        isa::PackedMeta meta;        //!< pre-decoded attribute bits
        rename::RenameResult rr;
        bpred::Prediction pred;
        bool mispredicted = false;   //!< resolves with a redirect
        bool wrongPath = false;
        bool faulting = false;       //!< raises an exception at commit

        bool completed = false;      //!< written back (store: address known)
        Tick readyAt = 0;            //!< completion (writeback) tick
    };

    // --- pipeline stages, called once per cycle; each returns whether
    // it changed any pipeline state ---
    bool commitStage();
    bool writebackStage();
    bool issueStage();
    bool renameStage();
    bool fetchStage();

    // --- helpers ---
    obs::CycleCause accountCycle();
    Tick nextEventTick() const;
    void skipQuietCycles(obs::CycleCause cause);
    bool srcsReady(const InFlight &inst) const;
    bool loadMayIssue(std::uint64_t pos, Tick *forwardReady) const;
    bool scheduleCompletion(std::uint64_t pos);
    void resolveBranch(std::uint64_t pos);
    std::uint32_t squashFrom(std::uint64_t pos, std::uint64_t flushSeq,
                             rename::HistoryToken token);
    void flushAll(Cycles extraPenalty);
    void squashRobEntry(const InFlight &victim);
    void squashFetchQueue();

    /** The slot at position `pos`, in [robHead, fetchTail). */
    InFlight &at(std::uint64_t pos) { return ring[pos & ringMask]; }
    const InFlight &at(std::uint64_t pos) const
    {
        return ring[pos & ringMask];
    }
    bool robEmpty() const { return robHead == robTail; }
    bool fetchQueueEmpty() const { return robTail == fetchTail; }

    /**
     * Call `event` on every observer, in registration order.  With no
     * observers this is one emptiness check.
     */
    template <typename Event>
    void
    notify(Event &&event)
    {
        for (obs::CoreObserver *o : observers)
            event(*o);
    }

    std::uint32_t tagIndex(const rename::PhysRegTag &tag) const;
    bool tagReady(const rename::PhysRegTag &tag) const;
    void setTagReady(const rename::PhysRegTag &tag, Tick when);
    void setTagPending(const rename::PhysRegTag &tag);

    CoreParams params;
    rename::Renamer &renamer;
    mem::MemSystem &memSys;
    bpred::BranchPredictor &bpred;
    trace::InstStream &stream;
    trace::WrongPathGenerator wrongPath;
    Random rng;

    Tick now = 0;

    // Fetch state.
    Tick fetchBlockedUntil = 0;
    bool onWrongPath = false;
    Addr wrongPathPc = 0;
    std::optional<trace::DynInst> pendingInst;  //!< stream lookahead
    std::deque<trace::DynInst> replayBuffer;    //!< refetch after flush
    bool streamDone = false;
    bool finished = false;
    std::uint64_t nextFetchSeq = 0;
    Addr lastFetchLine = invalidAddr;

    // The one home of every in-flight instruction (DESIGN §4k): a
    // power-of-two ring addressed by position.  [robHead, robTail) is
    // the ROB and [robTail, fetchTail) the fetch queue.  Positions
    // never wrap, so they compare in program order, and the IQ,
    // executing and store lists keep them in that order.
    std::vector<InFlight> ring;
    std::uint64_t ringMask;
    std::uint64_t robHead = 0;
    std::uint64_t robTail = 0;
    std::uint64_t fetchTail = 0;
    std::vector<std::uint64_t> iq;          //!< renamed, not yet issued
    std::vector<std::uint64_t> executing;   //!< issued, not completed
    std::deque<std::uint64_t> stores;       //!< in-flight stores
    std::uint32_t loadsInFlight = 0;

    // Scoreboard: ready tick per versioned tag.
    rename::TagIndexer indexer;
    std::vector<Tick> regReadyAt;

    /** Renamer callback: has `tag`'s producer executed?  Built once. */
    std::function<bool(const rename::PhysRegTag &)> tagProduced;

    // Functional units: busy-until per pool.
    std::vector<Tick> fuIntAlu, fuIntMulDiv, fuFpAlu, fuFpMulDiv, fuMem;

    Tick nextInterrupt = 0;
    /** The deadlock watchdog's watermark: the last commit, or the tick
     *  an instruction entered an empty ROB, whichever is later. */
    Tick lastCommitTick = 0;

    // Observability: the registered observers (empty = no hook does
    // any work) and the per-cycle attribution state consumed by
    // accountCycle().
    std::vector<obs::CoreObserver *> observers;
    std::uint32_t committedThisCycle = 0;
    enum class RenameBlock : std::uint8_t { None, NoReg, Rob, Iq, Lsq };
    RenameBlock renameBlock = RenameBlock::None;

    SimResult simResult;

    // Counters.  `cycles` counts simulated cycles for the accounting
    // check; it differs from `now` once advanceClock() has jumped it.
    std::uint64_t cycles = 0;
    std::uint64_t branchMispredicts = 0;
    std::uint64_t recoveryCycles = 0;   //!< charged to recover commands
    std::uint64_t exceptionsTaken = 0;
    std::uint64_t interruptsTaken = 0;
    std::uint64_t renameStalls = 0;     //!< cycles rename stalled on NoReg
    std::uint64_t skipped = 0;          //!< quiet cycles charged in bulk
    obs::CycleAccounting cycleCauses;
};

} // namespace rrs::core

#endif // RRS_CORE_O3CORE_HH
