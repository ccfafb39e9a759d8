/**
 * @file
 * Declarative sweep matrices: the (schemes x register-file sizes) grid
 * a bench iterates, expressed as a small JSON document instead of
 * nested C++ loops.  Example:
 *
 *     {
 *       "schemes": ["baseline",
 *                   {"scheme": "reuse", "label": "1-bit counter",
 *                    "params": {"counter_bits": 1}}],
 *       "rf_sizes": [48, 56, 64],
 *       "cap": 20000
 *     }
 *
 * A scheme column is either a bare registry name (its equal-area
 * configuration at each size) or an object adding a display label and
 * declarative parameter overrides (the keys each scheme publishes via
 * RenameScheme::paramRanges()).  Every diagnostic — malformed JSON,
 * unknown scheme, unknown parameter key, a number that does not fit
 * its field, duplicate keys, an unknown suite, an empty grid — is
 * raised at parse time with a clear message, so a bad matrix can never
 * crash or skew a sweep that has already started.
 *
 * Expansion order is part of the determinism contract: workloads
 * outermost, then sizes, then scheme columns in document order.  Run
 * seeds derive from submission indices (harness/sweep.hh), so this
 * order — and therefore the results — is bit-identical to the
 * hand-written loops it replaced.
 */

#ifndef RRS_HARNESS_SWEEPMATRIX_HH
#define RRS_HARNESS_SWEEPMATRIX_HH

#include <string>
#include <utility>
#include <vector>

#include "harness/sweep.hh"

namespace rrs::obs::json {
class Value;
}

namespace rrs::harness {

/**
 * Per-run timing length (post-warmup instructions) when nothing sets
 * one: the bench binaries without `--cap` and a campaign manifest
 * without "cap" both run it, so both reproduce the published tables.
 */
constexpr std::uint64_t defaultTimingInsts = 150'000;

/** One scheme column of a sweep matrix. */
struct SchemeSpec
{
    std::string scheme;   //!< registry key (validated at parse time)
    std::string label;    //!< display label; defaults to the key

    /** Declarative overrides, applied after configureEqualArea. */
    std::vector<std::pair<std::string, double>> params;
};

/** A parsed sweep matrix. */
struct SweepMatrix
{
    std::vector<SchemeSpec> schemes;
    std::vector<std::uint32_t> rfSizes;

    std::uint64_t cap = 0;       //!< per-run instruction cap; 0: default
    bool sampleSharing = false;  //!< collect the Fig. 9 series per run
    std::string suite;           //!< workload suite filter; "": all
    bool audit = true;           //!< false: force invariant auditing off

    /**
     * SMARTS sampled simulation for every run of the grid (a
     * `"sampling": {"warm": W, "detailed": D, "period": P}` block;
     * harness/sampling.hh).  Disabled — exact simulation — when absent.
     */
    SamplingParams sampling;
};

/**
 * Parse and validate a sweep-matrix document.
 * @return false with a diagnostic in `error` on any problem; `out` is
 *         untouched on failure.
 */
bool tryParseSweepMatrix(const std::string &text, SweepMatrix &out,
                         std::string &error);

/**
 * Same validation over an already-parsed JSON value — the campaign
 * manifest (harness/campaign.hh) embeds one matrix object per figure
 * and routes each through here, so a matrix is diagnosed identically
 * whether it arrives as its own file or inline.
 */
bool tryParseSweepMatrix(const obs::json::Value &root, SweepMatrix &out,
                         std::string &error);

/** Parse a matrix document, rrs_fatal on any diagnostic. */
SweepMatrix parseSweepMatrix(const std::string &text);

/** Load and parse a matrix file, rrs_fatal on I/O or parse errors. */
SweepMatrix loadSweepMatrixFile(const std::string &path);

/**
 * The RunConfig of one scheme column at one baseline-equivalent size:
 * the scheme's equal-area configuration with the column's declarative
 * overrides applied on top.
 */
RunConfig matrixConfig(const SchemeSpec &spec, std::uint32_t baselineRegs,
                       const SweepMatrix &m, std::uint64_t capDefault);

/**
 * Expand a matrix over a workload list into sweep items, in the
 * deterministic submission order documented above.
 * @param capDefault per-run instruction cap when the matrix sets none.
 */
std::vector<SweepItem> expandSweepMatrix(
    const SweepMatrix &m, const std::vector<workloads::Workload> &ws,
    std::uint64_t capDefault);

} // namespace rrs::harness

#endif // RRS_HARNESS_SWEEPMATRIX_HH
