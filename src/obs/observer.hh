/**
 * @file
 * The O3 core's one observer seam.
 *
 * Everything that watches a timing run — the O3PipeView tracer, the
 * crash flight recorder, the rename invariant auditor and the
 * occupancy sampler behind Fig. 9 and the telemetry trace — is a
 * CoreObserver registered with O3Core::addObserver.  The core keeps
 * one list; with it empty every hook site costs one never-taken
 * emptiness check.
 *
 * Contract (DESIGN.md §4g):
 *  - Per instruction, events arrive in pipeline order — fetch, rename,
 *    issue, complete, then exactly one of commit or squash — with
 *    non-decreasing cycles.  An instruction still in flight when a
 *    run stops at its instruction cap gets neither before endRun.
 *  - At one hook, observers are called in registration order.
 *  - An observer never mutates the core or the renamer.  It may read
 *    the event's arguments and, when wired next to the core (the
 *    harness does this), the renamer's and the core's const
 *    accessors.
 *
 * The interface lives in obs/ and names no rename-layer type, so obs/
 * stays below rename/ and core/ in the dependency order.
 */

#ifndef RRS_OBS_OBSERVER_HH
#define RRS_OBS_OBSERVER_HH

#include <cstdint>

#include "common/types.hh"
#include "trace/dyninst.hh"

namespace rrs::obs {

/**
 * A renamed destination register in raw fields (class / index /
 * version), mirroring rename::PhysRegTag.  reg == invalidRegIndex
 * means the instruction writes no register.
 */
struct DestTag
{
    RegClass cls = RegClass::Int;
    PhysRegIndex reg = invalidRegIndex;
    std::uint8_t version = 0;

    bool valid() const { return reg != invalidRegIndex; }
};

/** How much of the pipeline a `flush` event rolled back. */
enum class FlushScope : std::uint8_t {
    Younger,   //!< everything younger than the event's seq (mispredict)
    All,       //!< the whole pipeline (exception, interrupt, discard)
};

/**
 * Receives the core's events.  Every event has an empty default, so
 * an observer overrides only what it needs.  The first argument of a
 * per-instruction event is the core's dense fetch sequence number; the
 * Tick is the current cycle.
 */
class CoreObserver
{
  public:
    virtual ~CoreObserver() = default;

    /** Entered the fetch queue (wrong-path instructions included). */
    virtual void fetch(std::uint64_t, const trace::DynInst &, Tick) {}

    /** Renamed and dispatched into the ROB (one stage in this model). */
    virtual void rename(std::uint64_t, const DestTag &, Tick) {}

    /** Left the issue queue for a functional unit. */
    virtual void issue(std::uint64_t, Tick) {}

    /** Wrote back its result. */
    virtual void complete(std::uint64_t, Tick) {}

    /** Committed; the renamer has already retired its mapping. */
    virtual void commit(std::uint64_t, const DestTag &, Tick) {}

    /** Left the pipeline without committing. */
    virtual void squash(std::uint64_t, Tick) {}

    /**
     * A rollback finished: its instructions have had their squash
     * events and the renamer is restored.  The seq is the youngest
     * survivor for FlushScope::Younger and 0 for FlushScope::All.  A
     * full flush first rolls back everything younger than the oldest
     * in-flight instruction, so it reports a Younger flush before its
     * All flush.
     */
    virtual void flush(FlushScope, std::uint64_t, Tick) {}

    /**
     * End of every simulated cycle, after all stages: once per cycle,
     * because the core skips no quiet cycle while any observer is
     * attached.  Observers keep their own cadence (`now % period ==
     * 0`): the occupancy sampler every 128 cycles, periodic audits
     * every N.
     */
    virtual void sample(Tick) {}

    /** O3Core::run() is returning (once per window in sampled mode). */
    virtual void endRun() {}
};

} // namespace rrs::obs

#endif // RRS_OBS_OBSERVER_HH
