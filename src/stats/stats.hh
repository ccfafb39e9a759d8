/**
 * @file
 * Small helpers every report writer shares: the JSON string and
 * number writers, and a percentile over integer samples.
 *
 * Model objects count with plain integer members behind accessors;
 * results reach the bench tables, the ledger and the campaign sidecar
 * through harness::Outcome, never through a dump of those members.
 */

#ifndef RRS_STATS_STATS_HH
#define RRS_STATS_STATS_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace rrs::stats {

/**
 * Write `s` to `os` as a JSON string literal: surrounding quotes plus
 * the escapes the grammar requires (quote, backslash, \n \t \r, other
 * control characters as \uXXXX).  This is the one escaper every JSON
 * emitter in the tree should use — workload and scheme names are user
 * input (sweep matrices take arbitrary strings) and must survive a
 * jsonlite round trip.
 */
void jsonEscape(std::ostream &os, const std::string &s);

/** jsonEscape into a fresh string (for stream-free call sites). */
std::string jsonQuoted(const std::string &s);

/**
 * A double as a JSON number: full round-trip precision (%.17g), and
 * null for the non-finite values JSON cannot represent.  The one
 * number writer every JSON emitter in the tree should use; ledger node
 * keys format their parameters with it too, so its output is part of
 * every node digest.
 */
std::string jsonNumber(double v);

/**
 * The p-th percentile (p in [0, 100]) of `samples`, with linear
 * interpolation between adjacent order statistics (the numpy "linear"
 * convention): over the sorted samples the rank is `p/100 * (n - 1)`,
 * and a fractional rank blends the two bounding values.  No samples
 * report 0; p <= 0 reports the minimum and p >= 100 the maximum.
 * Used for the sampled runs' median window IPC and the phase
 * profiler's per-run p50/p95/max.
 */
double percentile(std::vector<std::uint64_t> samples, double p);

} // namespace rrs::stats

#endif // RRS_STATS_STATS_HH
