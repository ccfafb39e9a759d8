/**
 * @file
 * The parallel sweep engine.
 *
 * Every paper artifact is a sweep over workloads x register-file sizes
 * x {Baseline, Reuse}; the runs are completely independent, so they
 * fan out through one parallelFor (common/threadpool.hh), whose lanes
 * claim run indices from a shared counter, and scale near-linearly
 * with cores, like trace-driven simulator farms do.
 *
 * Determinism contract — results are bit-identical for every thread
 * count, including 1:
 *
 *  - Each run builds all of its own model state (core, renamer,
 *    memory, predictor) inside its lane; nothing is shared between
 *    runs but the read-only workload programs (whose cache is
 *    locked).
 *  - Each run's RNG seed is derived from the *submission index* of its
 *    config via sweepSeed(), never drawn from a shared stream, so the
 *    schedule cannot leak into the results.
 *  - Outcomes are written into a pre-sized slot per run and returned
 *    in submission order; the SweepSummary is folded from those
 *    slots, in submission order, only after every lane has joined, so
 *    no floating-point reduction depends on arrival order.
 *
 * Only the wall-clock/throughput numbers in SweepSummary may vary
 * between thread counts; everything in Outcome may not.
 */

#ifndef RRS_HARNESS_SWEEP_HH
#define RRS_HARNESS_SWEEP_HH

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

#include "common/threadpool.hh"
#include "harness/experiment.hh"

namespace rrs::harness {

/** One sweep entry: a workload plus the configuration to run it under. */
struct SweepItem
{
    const workloads::Workload *workload = nullptr;
    RunConfig config;
    bool sampleSharing = false;   //!< fill Outcome::occupancy (Fig. 9)

    /**
     * Index the run's RNG seed derives from (sweepSeed(seed, index)).
     * The default npos means "my submission index in this run() call" —
     * the original behaviour, which every bench keeps.  The campaign
     * runner (harness/campaign.hh) pins it to the item's stable index
     * within its figure's full expansion, so a resumed campaign that
     * re-submits only the missing subset still reproduces exactly the
     * seeds — and therefore the bytes — of an uninterrupted run.
     */
    static constexpr std::size_t autoSeedIndex = ~static_cast<std::size_t>(0);
    std::size_t seedIndex = autoSeedIndex;

    /** The core seed the item runs with at submission index `index`. */
    std::uint64_t runSeed(std::size_t index) const;
};

/** One entry's result: the run outcome plus its own wall clock. */
struct SweepResult
{
    Outcome outcome;
    double wallSeconds = 0;
};

/** Aggregate throughput numbers for a finished sweep. */
struct SweepSummary
{
    unsigned threads = 0;          //!< execution lanes used
    std::size_t runs = 0;
    double wallSeconds = 0;        //!< whole-sweep wall clock
    double runSecondsTotal = 0;    //!< sum of per-run wall clocks
    std::uint64_t instsCommitted = 0;

    // Trace-cache traffic attributable to this sweep.  Captured
    // instructions are functional-emulation work paid at most once per
    // (workload, cap); replayed instructions are what the timing runs
    // actually consumed.  Reported separately from instsCommitted so
    // the Minst/s figure only ever counts simulated (timing) work.
    std::uint64_t traceHits = 0;
    std::uint64_t traceMisses = 0;
    std::uint64_t instsCaptured = 0;
    std::uint64_t instsReplayed = 0;

    // Rename invariant auditing across the sweep's runs (rename/audit
    // + RRS_AUDIT).  Zero audits means auditing was off; violations
    // stay zero or the offending run already panicked.
    std::uint64_t auditsRun = 0;
    std::uint64_t auditViolations = 0;

    double
    runsPerSec() const
    {
        return wallSeconds > 0
                   ? static_cast<double>(runs) / wallSeconds
                   : 0.0;
    }

    double
    instsPerSec() const
    {
        return wallSeconds > 0
                   ? static_cast<double>(instsCommitted) / wallSeconds
                   : 0.0;
    }

    /** Parallel efficiency proxy: busy run-time over wall x lanes. */
    double
    utilisation() const
    {
        return wallSeconds > 0 && threads > 0
                   ? runSecondsTotal /
                         (wallSeconds * static_cast<double>(threads))
                   : 0.0;
    }
};

/** Derive the RNG seed of sweep entry `index` from a base seed. */
std::uint64_t sweepSeed(std::uint64_t base, std::size_t index);

/**
 * The sweep footer text benches print after their tables — the
 * throughput and trace-cache lines (plus the audit line when audits
 * ran).
 */
std::string formatSweepFooter(const SweepSummary &s);

/**
 * The sweep's Chrome trace-event JSON (RRS_TELEMETRY), rendered after
 * the join from what the sweep returns: run i's track (tid i) carries
 * a "run" and a "simulate" span from results[i] and an "occupancy"
 * counter track from its occupancy series; a final "sweep" track
 * carries the trace-cache traffic.  Everything is an Outcome-class
 * quantity stamped in simulated time, so the bytes are identical for
 * every thread count.
 */
std::string renderSweepTrace(const std::string &label,
                             const std::vector<SweepItem> &items,
                             const std::vector<SweepResult> &results,
                             const SweepSummary &summary);

/**
 * Fans RunConfigs out across a thread pool and returns Outcomes in
 * submission order.  Reusable: each run() call produces a fresh
 * summary.
 */
class SweepRunner
{
  public:
    /**
     * @param threads execution lanes; 0 picks RRS_THREADS or the
     *        hardware concurrency (ThreadPool::defaultThreadCount).
     *
     * With RRS_PIPETRACE=<prefix> set at construction, run `i` of
     * every sweep writes an O3PipeView trace to "<prefix>_run<i>.trace":
     * the name depends only on the submission index, so parallel lanes
     * never share a file and the set is the same at any thread count.
     */
    explicit SweepRunner(unsigned threads = 0);

    /** Run every item; results come back in submission order. */
    std::vector<SweepResult> run(const std::vector<SweepItem> &items);

    /**
     * Label for telemetry trace files: sweeps export to
     * "<RRS_TELEMETRY>/<label>_sweep<n>.trace.json".  Benches set this
     * to their name (bench::init does); defaults to "sweep".
     */
    void setTelemetryLabel(std::string label)
    {
        telemetryLabel = std::move(label);
    }

    /** Path of the trace written by the most recent run() ("" if none). */
    const std::string &lastTelemetryPath() const { return telemetryPath; }

    /** Like run(), discarding the per-run wall clocks. */
    std::vector<Outcome> outcomes(const std::vector<SweepItem> &items);

    /** Throughput numbers of the most recent run(). */
    const SweepSummary &summary() const { return lastSummary; }

    unsigned numThreads() const { return pool.numThreads(); }

    /**
     * Print the standard one-line throughput report benches append
     * after their tables, e.g.
     * "sweep: 42 runs in 3.1 s on 4 threads (13.5 runs/s, 2.0 Minst/s,
     *  96% utilisation)".
     */
    void printSummary(std::ostream &os) const;

  private:
    ThreadPool pool;
    SweepSummary lastSummary;
    std::string tracePrefix;
    std::string telemetryLabel = "sweep";
    std::string telemetryPath;
};

/** Convenience builder. */
inline SweepItem
sweepItem(const workloads::Workload &w, RunConfig config,
          bool sampleSharing = false)
{
    return SweepItem{&w, std::move(config), sampleSharing};
}

} // namespace rrs::harness

#endif // RRS_HARNESS_SWEEP_HH
