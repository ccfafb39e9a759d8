/**
 * @file
 * Campaign manifests: the whole reproduction — every figure and table,
 * over every scheme and sampling mode — declared as one JSON document
 * and executed as a resumable DAG of ledger nodes (DESIGN §4j).
 *
 * Manifest grammar (same parse-time-diagnostic discipline as the sweep
 * matrices it embeds):
 *
 *     {
 *       "name": "hpca18-repro",
 *       "cap": 150000,
 *       "figures": [
 *         {"figure": "fig11", "kind": "fig11",
 *          "matrix": { ...a sweepmatrix document... }},
 *         {"figure": "fig10", "kind": "fig10",
 *          "matrix": { ... }},
 *         {"figure": "table3", "kind": "table3",
 *          "sizes": [48, 56, 64, 72, 80, 96, 112]}
 *       ]
 *     }
 *
 * Kinds: "fig11" (geomean IPC table) and "fig10" (per-suite speedup
 * tables) take a two-column sweep matrix; "table3" is analytic (the
 * equal-area solver needs no simulation, so it contributes zero
 * nodes).  Every diagnostic — unknown kind, duplicate figure name, a
 * matrix that fails its own validation — is raised at parse time.
 *
 * Planning expands each figure's matrix with expandSweepMatrix
 * (workloads outermost, then sizes, then scheme columns) and computes
 * each cell's ledger digest.  The digest covers the *effective* seed —
 * sweepSeed(base, k) for expansion index k within the figure — and the
 * item pins SweepItem::seedIndex to that same k, so a resumed campaign
 * that re-submits only missing nodes reproduces the full run's seeds
 * bit for bit.  Figures that expand to the same cells (fig10 and fig11
 * over one matrix) share digests and therefore simulations.
 *
 * Campaign workload selection ignores the bench-side --suite/--workload
 * filters by design: a manifest names its full set (via each matrix's
 * "suite" member), and a campaign is only comparable to another run of
 * the same manifest.
 */

#ifndef RRS_HARNESS_CAMPAIGN_HH
#define RRS_HARNESS_CAMPAIGN_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "harness/ledger.hh"
#include "harness/sweepmatrix.hh"

namespace rrs::harness {

/**
 * Bump when the campaign.json sidecar layout changes.
 * v2: the sweep's trace-cache counters, which rrs-report --baseline
 * gates next to the wall clock.
 */
constexpr int campaignSchemaVersion = 2;

/** One declared figure/table of a campaign. */
struct CampaignFigure
{
    enum class Kind { Fig10, Fig11, Table3 };

    std::string name;                 //!< unique within the manifest
    Kind kind = Kind::Fig11;
    SweepMatrix matrix;               //!< fig10/fig11 kinds
    std::vector<std::uint32_t> sizes; //!< table3 kind
};

/** A parsed campaign manifest. */
struct CampaignManifest
{
    std::string name;
    std::uint64_t cap = 0;     //!< default per-run cap; 0: harness default
    std::vector<CampaignFigure> figures;
};

/** The stable kind string ("fig10"/"fig11"/"table3"). */
const char *campaignKindName(CampaignFigure::Kind kind);

/**
 * Parse and validate a manifest document.
 * @return false with a diagnostic in `error`; `out` untouched then.
 */
bool tryParseCampaignManifest(const std::string &text,
                              CampaignManifest &out, std::string &error);

/** Load and parse a manifest file, rrs_fatal on any diagnostic. */
CampaignManifest loadCampaignManifestFile(const std::string &path);

/** Execution knobs for runCampaign. */
struct CampaignOptions
{
    /**
     * Overrides every per-run instruction cap (manifest and matrix
     * alike) when non-zero — the CI smoke knob, like bench --cap.
     * Different caps produce disjoint digests, so a capped smoke
     * ledger can never pollute a full-length one.
     */
    std::uint64_t capOverride = 0;

    /**
     * Stop after simulating this many new nodes (already-present nodes
     * still count as hits).  The deterministic interrupt seam the
     * resumability tests use; default: unlimited.
     */
    std::size_t maxNewNodes = ~static_cast<std::size_t>(0);

    unsigned threads = 0;      //!< sweep lanes; 0: RRS_THREADS/hardware
};

/** One planned (not yet necessarily simulated) ledger node. */
struct PlannedNode
{
    NodeSpec spec;
    SweepItem item;            //!< ready to run; seedIndex pinned
};

/** The expanded DAG of a manifest. */
struct CampaignPlan
{
    struct FigurePlan
    {
        const CampaignFigure *figure = nullptr;

        /** Workload (name, suite) rows, in expansion (outer) order. */
        std::vector<std::pair<std::string, std::string>> workloads;

        /** Scheme display labels, in matrix column order. */
        std::vector<std::string> schemeLabels;

        std::vector<std::uint32_t> sizes;

        /**
         * Node digests, flat in expansion order: workload-major, then
         * size, then scheme column.  Empty for analytic kinds.
         */
        std::vector<std::string> digests;
    };
    std::vector<FigurePlan> figures;

    /** Unique digests in first-appearance order (execution order). */
    std::vector<std::string> order;
    std::map<std::string, PlannedNode> nodes;
};

/** Expand a manifest into its node DAG (no simulation, no I/O). */
CampaignPlan planCampaign(const CampaignManifest &m,
                          const CampaignOptions &opts);

/** What one runCampaign call did. */
struct CampaignResult
{
    std::size_t totalNodes = 0;   //!< unique digests in the plan
    std::size_t hits = 0;         //!< already present, skipped
    std::size_t simulated = 0;    //!< newly simulated and stored
    std::size_t remaining = 0;    //!< left out by maxNewNodes
    std::string sidecarPath;      //!< the campaign.json written

    bool complete() const { return remaining == 0; }
};

/**
 * Execute a manifest against a ledger: plan, skip every digest the
 * ledger already has, simulate the missing nodes through one parallel
 * sweep, store each result atomically, and write the campaign.json
 * sidecar into the ledger directory: the figure descriptors plus the
 * sweep's host cost (threads, wall clock, trace-cache traffic, and
 * the phase profile under RRS_PROF).  A clean re-run therefore simulates nothing and reports
 * hits == totalNodes.
 */
CampaignResult runCampaign(const CampaignManifest &m, const Ledger &ledger,
                           const CampaignOptions &opts, std::ostream &os);

} // namespace rrs::harness

#endif // RRS_HARNESS_CAMPAIGN_HH
