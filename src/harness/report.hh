/**
 * @file
 * The campaign report generator: renders a ledger + its campaign.json
 * sidecar into one markdown (or HTML-wrapped) document (DESIGN §4j).
 *
 * Sections, in order:
 *
 *  1. Header — campaign name, git sha, node counts, and the last run's
 *     threads, wall clock and trace-cache traffic.
 *  2. One block per declared figure, rendered by the *same*
 *     harness/figures renderers the bench binaries print through, fed
 *     from the outcomes the ledger nodes store — so each fenced
 *     block is byte-identical to the direct bench output (sampled
 *     grids included: CI columns and whiskers appear in both).
 *  3. Per-node stall attribution — every simulated node's full-cycle
 *     breakdown (obs/stallcause.hh), as percentages.
 *  4. Phase profile — the host-side profiler rows from the sidecar
 *     (present when the campaign ran under RRS_PROF).
 *  5. Drift vs a baseline ledger (optional): diffLedgers' verdicts —
 *     exact nodes on every stored result, sampled nodes on 95% CI
 *     overlap — with each drifted metric named per node, so a
 *     regression is explained (which node, which metric, which stall
 *     cause grew).
 *  6. Host cost vs the baseline (with a baseline): both sidecars'
 *     threads, wall clock and trace-cache traffic, gated under a
 *     throughput threshold.
 */

#ifndef RRS_HARNESS_REPORT_HH
#define RRS_HARNESS_REPORT_HH

#include <string>

#include "harness/ledger.hh"

namespace rrs::harness {

/** Report knobs. */
struct ReportOptions
{
    /** Non-empty: append the drift and host-cost sections against
     *  this ledger. */
    std::string baselineDir;

    /**
     * Non-negative: gate host cost against the baseline's sidecar.  The
     * report then fails when the wall clock rose by more than this many
     * percent (a speedup never fails) or the trace-cache traffic
     * differs, and refuses to compare unless both sidecars record a run
     * that simulated the same node set in full.  Negative (the
     * default): host cost is reported, never gated.
     */
    double throughputThresholdPct = -1;

    /** Wrap the markdown in a minimal self-contained HTML page. */
    bool html = false;
};

/**
 * Render the campaign report for a ledger directory into `out`.
 * @return 0 when nothing drifted against the baseline (or there is
 *         none); 1 on drift — a shared node's stored result differs, a
 *         node is unreadable on one side, the node set differs, or
 *         gated host cost regressed; 2 with `error` set when the report
 *         cannot be rendered (no readable sidecar, a baseline without
 *         nodes/), a figure's node is missing or malformed and no drift
 *         names it, or the host-cost gate cannot compare.  `out` holds
 *         the report whenever it rendered, whatever the status; a
 *         figure whose nodes did not load says so in its section.
 */
int renderCampaignReport(const Ledger &ledger, const ReportOptions &opts,
                         std::string &out, std::string &error);

} // namespace rrs::harness

#endif // RRS_HARNESS_REPORT_HH
