/**
 * @file
 * Versioned machine-readable perf baselines for the bench harness.
 *
 * Every bench can record its sweep into a `BENCH_<bench>.json` file
 * (`--bench-json <dir>` / `RRS_BENCH_JSON`): schema version, git sha,
 * build type, thread count, one row per run (workload, scheme,
 * committed instructions, cycles, IPC, wall), the sweep throughput
 * numbers, the trace-cache counters, the human footer string, and —
 * when the profiler ran — the per-run phase breakdown.
 *
 * The rows split into two classes that the diff treats differently:
 *
 *  - *exact* metrics (instructions, cycles, and the IPC derived from
 *    them) are integer simulation results covered by the sweep
 *    determinism contract: they must match bit-for-bit across thread
 *    counts and machines, so any drift is a regression.
 *  - *noisy* metrics (wall clock, runs/s, Minst/s) are host-dependent;
 *    diffBenchResults() only warns about them unless a threshold is
 *    configured.
 *
 * diffBenchResults() and the rrs-benchdiff tool gate CI on this split:
 * exit 0 clean, 1 on exact drift (or a noisy slowdown past the
 * threshold), 2 on a schema-version mismatch.
 */

#ifndef RRS_HARNESS_BENCHJSON_HH
#define RRS_HARNESS_BENCHJSON_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "harness/sweep.hh"

namespace rrs::obs::json {
class Value;
}

namespace rrs::harness {

/**
 * Bump when the BENCH_*.json layout changes incompatibly.
 * v2: run rows may carry a "sampled" object (SMARTS sampled runs,
 * harness/sampling.hh); the diff gates those rows on CI overlap
 * instead of exact insts/cycles equality.
 */
constexpr int benchSchemaVersion = 2;

/** One recorded bench run: the content of BENCH_<bench>.json. */
struct BenchResult
{
    int schemaVersion = benchSchemaVersion;
    std::string bench;          //!< bench name, e.g. "fig11_ipc"
    std::string gitSha;         //!< "unknown" outside a checkout
    std::string buildType;      //!< CMAKE_BUILD_TYPE at compile time
    unsigned threads = 0;

    /** Exact per-run rows, in submission order. */
    std::vector<RunRecord> runs;

    // Exact sweep totals.
    std::uint64_t instsTotal = 0;
    std::uint64_t cyclesTotal = 0;

    // Noisy sweep throughput.
    double wallSeconds = 0;
    double runsPerSec = 0;
    double minstPerSec = 0;

    // Trace-cache traffic (exact: depends only on the sweep set).
    std::uint64_t traceHits = 0;
    std::uint64_t traceMisses = 0;
    std::uint64_t instsCaptured = 0;
    std::uint64_t instsReplayed = 0;

    /** The formatSweepFooter() string the bench printed. */
    std::string footer;

    /**
     * The sweep's metric schema (stats::Group::dumpSchema): one entry
     * per stat, dotted name -> {kind, unit, desc}, pre-rendered as a
     * JSON object.  Lets rrs-benchdiff and the future experiment
     * ledger discover metrics instead of hard-coding their names.
     * Empty renders as {}.
     */
    std::string metricSchema;

    /** One per-run profiler phase (present when RRS_PROF/--prof). */
    struct PhaseRow
    {
        std::string path;       //!< "/"-joined, e.g. "simulate"
        std::uint64_t count = 0;
        double seconds = 0;
        double p50Us = 0;
        double p95Us = 0;
        double maxUs = 0;
    };
    std::vector<PhaseRow> phases;
};

/** Best-effort current commit: GITHUB_SHA, `git rev-parse`, "unknown". */
std::string currentGitSha();

/**
 * Snapshot a finished bench into a BenchResult: the runner's summary,
 * run records and footer, plus sha/build/thread metadata and — when
 * profiling is enabled — the merged per-run phase table.
 */
BenchResult collectBenchResult(const std::string &bench,
                               const SweepRunner &runner);

/** Render as the versioned JSON document. */
std::string renderBenchJson(const BenchResult &r);

/**
 * Render one run row exactly as it appears in a BENCH_*.json "runs"
 * array (the schema-v2 row object, including the "sampled" block for
 * sampled runs).  The experiment ledger (harness/ledger.hh) embeds
 * this same object per node, so the two formats can never diverge.
 */
std::string renderRunRecordJson(const RunRecord &run);

/** Parse a schema-v2 run row (a "runs" element / a ledger "run"). */
void parseRunRecordJson(const obs::json::Value &e, RunRecord &run);

/**
 * The sampled gating rule rrs-benchdiff and the ledger drift section
 * share: two sampled estimates agree when |mean_a - mean_b| does not
 * exceed the sum of their reported 95% CIs.  Anything further apart is
 * an estimator or schedule change, not window-boundary noise.
 */
bool sampledCiOverlap(const SampledSummary &a, const SampledSummary &b);

/** The file name a bench writes: "BENCH_<bench>.json". */
std::string benchJsonFileName(const std::string &bench);

/** Atomic write (tmp+rename; creates parent directories). */
bool tryWriteBenchJson(const std::string &path, const BenchResult &r,
                       std::string &error);

/** Parse a BENCH_*.json back; false + error on malformed input. */
bool loadBenchJson(const std::string &path, BenchResult &out,
                   std::string &error);

/** How diffBenchResults() treats the noisy metrics. */
struct BenchDiffOptions
{
    /**
     * Fail when throughput worsens by more than this many percent
     * (wall clock up, runs/s or Minst/s down); a speedup never fails.
     * Negative (the default) means noisy drift only warns.
     */
    double throughputThresholdPct = -1;
    bool markdown = false;      //!< pipe-table output for PR comments
};

/**
 * Compare a current result against a baseline, printing a delta table.
 * @return 0 clean, 1 exact drift (or noisy slowdown past the threshold),
 *         2 schema-version mismatch.
 */
int diffBenchResults(const BenchResult &base, const BenchResult &cur,
                     const BenchDiffOptions &opts, std::ostream &os);

/**
 * The structured form of a benchdiff: the same verdicts text mode
 * prints, as data.  `rrs-benchdiff --json` renders it so scripts and
 * the campaign report embed results instead of scraping tables.
 */
struct BenchDiffReport
{
    std::string bench;
    std::string baseSha, curSha;
    std::string baseBuild, curBuild;
    int baseSchema = 0, curSchema = 0;
    bool schemaMismatch = false;

    bool runCountMismatch = false;
    std::size_t baseRuns = 0, curRuns = 0;

    /** One exact-metric drift finding (empty list = exact OK). */
    struct DriftRow
    {
        std::string workload;
        std::string scheme;
        std::string metric;     //!< "insts"/"cycles"/"ipc"/"mean_ipc"/...
        std::string baseVal, curVal;
        std::string delta;
    };
    std::vector<DriftRow> exactDrift;

    /** Host-noise metrics, always reported, gated only on request. */
    struct NoisyRow
    {
        std::string name;
        double base = 0, cur = 0;
        double deltaPct = 0;
        bool regression = false;   //!< slower than the threshold allows
    };
    std::vector<NoisyRow> noisy;

    /** Phase-profile pairs (host wall clock, warn-only).  Negative
     *  seconds mean the side lacks the phase. */
    struct PhasePair
    {
        std::string path;
        double baseSeconds = -1, curSeconds = -1;
        double baseP95Us = -1, curP95Us = -1;
    };
    std::vector<PhasePair> phases;

    int exitCode = 0;   //!< same 0/1/2 contract as diffBenchResults()

    const char *
    verdict() const
    {
        if (schemaMismatch)
            return "schema-mismatch";
        return exitCode == 0 ? "clean" : "drift";
    }
};

/** Compute the diff without rendering (the data behind both modes). */
BenchDiffReport collectBenchDiff(const BenchResult &base,
                                 const BenchResult &cur,
                                 const BenchDiffOptions &opts);

/** Render a diff report as a machine-readable JSON document. */
std::string renderBenchDiffJson(const BenchDiffReport &r);

} // namespace rrs::harness

#endif // RRS_HARNESS_BENCHJSON_HH
