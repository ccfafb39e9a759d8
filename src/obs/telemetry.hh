/**
 * @file
 * Where telemetry goes and how its files are named.  With
 * RRS_TELEMETRY=<dir> set, every sweep writes one Chrome trace-event
 * JSON file, `<dir>/<label>_sweep<n>.trace.json`, rendered after the
 * join from the sweep's outcomes (harness/sweep.hh, renderSweepTrace);
 * crash flight-recorder dumps (obs/flightrec.hh) land in the same
 * directory.
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
 */

#ifndef RRS_OBS_TELEMETRY_HH
#define RRS_OBS_TELEMETRY_HH

#include <cstdint>
#include <string>

namespace rrs::obs {

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
 * Parse a `<label>_sweep<n>.trace.json` file name (`name` is a bare
 * file name, not a path) back into its label and sweep index.
 * Consumers that order trace files (rrs-teleview) sort on the parsed
 * index so `_sweep10` lists after `_sweep2`, not before it as a
 * lexicographic sort would.
 * @return false when the name does not match the pattern.
 */
bool parseSweepTraceName(const std::string &name, std::string &label,
                         std::uint64_t &seq);

} // namespace rrs::obs

#endif // RRS_OBS_TELEMETRY_HH
