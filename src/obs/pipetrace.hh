/**
 * @file
 * Per-instruction pipeline event tracer emitting gem5's O3PipeView
 * format, so traces load directly in Konata (and in gem5's own
 * util/o3-pipeview.py).  One record per dynamic instruction:
 *
 *   O3PipeView:fetch:<tick>:0x<pc>:0:<seq>:<disasm>
 *   O3PipeView:decode:<tick>
 *   O3PipeView:rename:<tick>
 *   O3PipeView:dispatch:<tick>
 *   O3PipeView:issue:<tick>
 *   O3PipeView:complete:<tick>
 *   O3PipeView:retire:<tick>:store:<storeTick>
 *
 * Ticks are cycles scaled by ticksPerCycle (default 500, gem5's 2 GHz
 * convention).  Stages an instruction never reached carry tick 0, and
 * a squashed instruction retires at tick 0 — exactly how gem5 marks
 * flushed work, which Konata renders as such.
 *
 * The tracer is a CoreObserver (obs/observer.hh): it buffers each
 * instruction's record keyed by fetch sequence number and emits it
 * when the instruction leaves the pipeline (commit or squash),
 * matching gem5's emission order.  Detached, it costs the core
 * nothing beyond the observer list's emptiness check.
 */

#ifndef RRS_OBS_PIPETRACE_HH
#define RRS_OBS_PIPETRACE_HH

#include <fstream>
#include <memory>
#include <ostream>
#include <string>
#include <unordered_map>

#include "common/types.hh"
#include "obs/observer.hh"
#include "trace/dyninst.hh"

namespace rrs::obs {

/** O3PipeView-format pipeline event tracer. */
class PipeTracer : public CoreObserver
{
  public:
    /** Trace into an externally owned stream (tests). */
    explicit PipeTracer(std::ostream &os,
                        std::uint64_t ticksPerCycle = defaultTicksPerCycle);

    /** Trace into a file (fatal if it cannot be opened). */
    explicit PipeTracer(const std::string &path,
                        std::uint64_t ticksPerCycle = defaultTicksPerCycle);

    ~PipeTracer();

    PipeTracer(const PipeTracer &) = delete;
    PipeTracer &operator=(const PipeTracer &) = delete;

    // --- CoreObserver events ---
    void fetch(std::uint64_t seq, const trace::DynInst &di,
               Tick cycle) override;
    /** Stamps rename and dispatch: one stage in this model. */
    void rename(std::uint64_t seq, const DestTag &dest,
                Tick cycle) override;
    void issue(std::uint64_t seq, Tick cycle) override;
    void complete(std::uint64_t seq, Tick cycle) override;
    void commit(std::uint64_t seq, const DestTag &dest,
                Tick cycle) override;
    void squash(std::uint64_t seq, Tick cycle) override;
    /** Emit any still-buffered instructions as squashed. */
    void endRun() override;

    /** Records emitted so far (retired + squashed). */
    std::uint64_t emitted() const { return emittedCount; }

    /** gem5's default 2 GHz core / 1 THz tick clock ratio. */
    static constexpr std::uint64_t defaultTicksPerCycle = 500;

  private:
    struct Record
    {
        Addr pc = 0;
        std::string disasm;
        bool store = false;
        Tick fetchTick = 0;
        Tick renameTick = 0;
        Tick dispatchTick = 0;
        Tick issueTick = 0;
        Tick completeTick = 0;
    };

    void emit(const Record &rec, Tick retireTick);

    /**
     * Cycles are 0-based but tick 0 means "stage not reached" in the
     * format, so real events are offset by one cycle.
     */
    Tick toTick(Tick cycle) const { return (cycle + 1) * ticksPerCycle; }

    std::unique_ptr<std::ofstream> owned;  //!< set for the path ctor
    std::ostream &out;
    std::uint64_t ticksPerCycle;
    std::unordered_map<std::uint64_t, Record> live;
    std::uint64_t emittedCount = 0;
};

} // namespace rrs::obs

#endif // RRS_OBS_PIPETRACE_HH
