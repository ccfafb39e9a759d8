/**
 * @file
 * Structured telemetry spine: typed spans and counter samples recorded
 * per sweep run, exported as Chrome trace-event JSON that Perfetto and
 * chrome://tracing load directly.
 *
 * Determinism contract — the exported trace is byte-identical for
 * every RRS_THREADS value, which forces one central design decision:
 * telemetry timestamps live in the *simulated-time* domain (cycles,
 * rendered as trace microseconds), never the host clock.  Host
 * wall-clock is the phase profiler's job (obs/profiler.hh); the
 * telemetry trace answers "what did the simulation do", and simulated
 * time is the only clock that is schedule-independent.  For the same
 * reason the trace's pid is a constant and tid is the run's submission
 * index: which *worker* executed a run is scheduling noise, so baking
 * worker ids into the trace would break byte-identity.
 *
 * Threading model mirrors the sweep's result slots: each run records
 * into its own RunTelemetry buffer with no synchronisation (lock-free
 * by construction — one writer, no readers until the join), and the
 * writer serialises the buffers post-join in submission order.
 */

#ifndef RRS_OBS_TELEMETRY_HH
#define RRS_OBS_TELEMETRY_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace rrs::obs {

/**
 * One key/value pair attached to a span.  The value is stored already
 * rendered as JSON (a number or a quoted string), so recording is a
 * string append and the writer never re-interprets it.
 */
struct TelemetryArg
{
    std::string key;
    std::string json;   //!< pre-rendered JSON value
};

/**
 * One typed span: a named interval in simulated time.  ts and dur are
 * cycles; the writer emits them as Chrome trace microseconds, so one
 * trace microsecond == one simulated cycle.
 */
struct TelemetrySpan
{
    std::string name;
    std::uint64_t ts = 0;
    std::uint64_t dur = 0;
    std::vector<TelemetryArg> args;
};

/**
 * One counter sample: a named counter track with one or more series
 * values at a cycle timestamp (Chrome "C" event).
 */
struct TelemetryCounterSample
{
    std::string track;       //!< counter track name, e.g. "occupancy"
    std::uint64_t ts = 0;
    std::vector<std::pair<std::string, double>> values;
};

/**
 * The per-run event buffer.  One run (one sweep lane) records into
 * exactly one RunTelemetry; the sweep runner owns a vector of them,
 * one slot per submission index, and hands each slot's address to its
 * run through ObsOptions.  Recording is plain vector appends — no
 * atomics, no locks — because the buffer is single-writer until the
 * post-join merge reads it.
 */
class RunTelemetry
{
  public:
    /** Human track title, e.g. "dotprod x reuse" (writer metadata). */
    void setTitle(std::string t) { runTitle = std::move(t); }
    const std::string &title() const { return runTitle; }

    /** Record a span; args are attached with the arg* helpers below. */
    TelemetrySpan &
    span(std::string name, std::uint64_t ts, std::uint64_t dur)
    {
        spanList.push_back(TelemetrySpan{std::move(name), ts, dur, {}});
        return spanList.back();
    }

    /** Record one counter sample on a named track. */
    void
    counter(std::string track, std::uint64_t ts,
            std::vector<std::pair<std::string, double>> values)
    {
        counterList.push_back(TelemetryCounterSample{
            std::move(track), ts, std::move(values)});
    }

    bool empty() const { return spanList.empty() && counterList.empty(); }
    const std::vector<TelemetrySpan> &spans() const { return spanList; }
    const std::vector<TelemetryCounterSample> &counters() const
    {
        return counterList;
    }

    void
    clear()
    {
        runTitle.clear();
        spanList.clear();
        counterList.clear();
    }

  private:
    std::string runTitle;
    std::vector<TelemetrySpan> spanList;
    std::vector<TelemetryCounterSample> counterList;
};

/** Attach a string arg (JSON-escaped) to a span. */
void argStr(TelemetrySpan &s, std::string key, const std::string &value);

/** Attach a numeric arg (full %.17g round-trip precision) to a span. */
void argNum(TelemetrySpan &s, std::string key, double value);

/** Attach an integer arg (no precision loss for 64-bit counts). */
void argInt(TelemetrySpan &s, std::string key, std::uint64_t value);

/**
 * Sweep-level numbers for the trace's "sweep" track.  Capture work is
 * attributed at sweep granularity only: *which run* triggered a trace
 * capture depends on the execution schedule (first lane to miss the
 * cache captures for everyone), so per-run capture spans would break
 * byte-identity — the aggregate deltas are schedule-independent.
 * These spans live on an instruction-denominated track (1 trace
 * microsecond == 1 emulated instruction), named accordingly.
 */
struct TelemetrySweepInfo
{
    std::string label;                  //!< bench/sweep name for metadata
    std::uint64_t runs = 0;
    std::uint64_t capturedInsts = 0;    //!< functional capture work
    std::uint64_t replayedInsts = 0;    //!< trace insts replayed
    std::uint64_t packedRecords = 0;    //!< records packed into columns
};

/**
 * Telemetry output directory: the RRS_TELEMETRY environment variable,
 * unless overridden programmatically (tests).  Empty means telemetry
 * export is disabled.
 */
std::string telemetryDir();

/** Override (or, with "", clear) the directory; takes precedence over
 *  the environment.  Pass reset=true to drop the override. */
void setTelemetryDir(std::string dir, bool reset = false);

/**
 * Serialise one sweep's telemetry as a Chrome trace-event JSON file,
 * `<dir>/<label>_sweep<seq>.trace.json` (seq is a process-wide sweep
 * counter, so repeated sweeps in one bench never clobber each other).
 * Buffers are written in submission order — index in `runs` is the
 * trace tid — making the bytes independent of the execution schedule.
 * Null buffer entries are skipped but keep their tid.
 *
 * Returns the path written, or "" when `dir` is empty.
 */
std::string writeSweepTrace(const std::string &dir,
                            const TelemetrySweepInfo &info,
                            const std::vector<const RunTelemetry *> &runs);

/**
 * Render the trace JSON itself (the file body writeSweepTrace saves);
 * exposed so tests can golden-check the exact bytes.
 */
std::string renderSweepTrace(const TelemetrySweepInfo &info,
                             const std::vector<const RunTelemetry *> &runs);

/**
 * Parse a `<label>_sweep<n>.trace.json` file name (the exact shape
 * writeSweepTrace produces; `name` is a bare file name, not a path)
 * back into its label and sweep index.  Consumers that order trace
 * files (rrs-teleview) sort on the parsed index so `_sweep10` lists
 * after `_sweep2`, not before it as a lexicographic sort would.
 * @return false when the name does not match the pattern.
 */
bool parseSweepTraceName(const std::string &name, std::string &label,
                         std::uint64_t &seq);

} // namespace rrs::obs

#endif // RRS_OBS_TELEMETRY_HH
