/**
 * @file
 * Crash-time flight recorder: a fixed-size ring buffer of the most
 * recent rename/pipeline events (allocate / commit / squash / flush,
 * each with cycle, physical-register tag and free-list depth), dumped
 * together with the run's identifying context (workload, scheme, sweep
 * seed, configuration) when the process dies through rrs_panic or
 * rrs_fatal — which is exactly how an RRS_AUDIT invariant violation
 * reports itself.  Turns the auditor's one-line "invariant violated"
 * into a forensic report of what the rename stage did in the last N
 * events before the violation.
 *
 * Cost model: recording is a handful of stores into a pre-sized ring
 * (no allocation, no locks — the recorder belongs to one core, which
 * belongs to one sweep lane).  harness::runOn feeds it through a core
 * observer (obs/observer.hh) that reads the renamer's free lists;
 * without one the core pays only the observer list's emptiness check
 * per hook.  Arming registers a crash hook (common/logging.hh); the
 * hook fires on the *crashing* thread, and dumps every armed recorder
 * — in a parallel sweep the other lanes' recorders are
 * quiescent-but-racy reads, acceptable in a process that is already
 * dying.
 */

#ifndef RRS_OBS_FLIGHTREC_HH
#define RRS_OBS_FLIGHTREC_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace rrs::obs {

/** What the rename/pipeline hook observed. */
enum class FlightEventKind : std::uint8_t {
    Alloc,    //!< rename allocated a destination register
    Commit,   //!< instruction committed (frees its previous mapping)
    Squash,   //!< branch/exception squash rolled the map back
    Flush,    //!< full pipeline flush
};

const char *flightEventKindName(FlightEventKind k);

/**
 * One recorded event.  The register identity is stored as raw fields
 * (class / index / version) rather than a rename-layer type so obs/
 * stays below rename/ in the dependency order.
 */
struct FlightEvent
{
    std::uint64_t cycle = 0;
    std::uint64_t seq = 0;       //!< instruction sequence number (0: none)
    FlightEventKind kind = FlightEventKind::Alloc;
    std::uint8_t cls = 0;        //!< register class (0 int, 1 fp)
    std::uint8_t version = 0;    //!< tag version (shadow-cell schemes)
    std::uint16_t reg = 0;       //!< physical register index
    std::int32_t freeInt = 0;    //!< int free-list depth after the event
    std::int32_t freeFp = 0;     //!< fp free-list depth after the event
};

/**
 * The per-core ring.  Construct with the depth (number of events kept;
 * RRS_FLIGHTREC_DEPTH picks it for env-driven runs), fill in context
 * strings identifying the run, then arm() to hook the crash path.
 */
class FlightRecorder
{
  public:
    explicit FlightRecorder(std::uint32_t depth);
    ~FlightRecorder();

    FlightRecorder(const FlightRecorder &) = delete;
    FlightRecorder &operator=(const FlightRecorder &) = delete;

    /** The hot-path hook: overwrite the oldest slot. */
    void
    record(const FlightEvent &e)
    {
        ring[head] = e;
        head = (head + 1) % ring.size();
        if (recorded < ring.size())
            ++recorded;
    }

    /** Attach an identifying key/value (workload, scheme, seed, ...). */
    void setContext(std::string key, std::string value);

    /**
     * Register this recorder with the crash-hook registry: any
     * rrs_panic / rrs_fatal from now until destruction dumps it.
     */
    void arm();

    /** Events currently held, oldest first. */
    std::vector<FlightEvent> events() const;

    std::uint32_t depth() const
    {
        return static_cast<std::uint32_t>(ring.size());
    }

    /** Human-readable dump: context block then one line per event. */
    void dump(std::ostream &os) const;

    /**
     * Dump to `<dir>/flightrec_<n>.dump`, where dir is telemetryDir()
     * (obs/telemetry.hh; the working directory when that is empty) and
     * n a process-wide counter.  Returns the path, or "" on failure.
     * Called by the crash hook; also usable directly from tests.
     */
    std::string dumpToFile() const;

  private:
    std::vector<FlightEvent> ring;
    std::size_t head = 0;
    std::size_t recorded = 0;
    std::vector<std::pair<std::string, std::string>> context;
    std::uint64_t hookId = 0;
    bool armed = false;
};

} // namespace rrs::obs

#endif // RRS_OBS_FLIGHTREC_HH
