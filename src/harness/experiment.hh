/**
 * @file
 * Experiment harness: assembles a full rig (core + renamer + memory +
 * branch predictor + workload), runs it, and extracts the numbers the
 * paper's tables and figures report.  runOn is also the one place
 * that wires core observers (obs/observer.hh): the pipe tracer, the
 * flight recorder, the rename auditor's trigger points and the
 * occupancy sampler that feeds Fig. 9 and the telemetry trace.  Also
 * owns the equal-area sizing logic (Table III) that maps a baseline
 * register-file size to the proposed 4-bank organisation of the same
 * total area.
 */

#ifndef RRS_HARNESS_EXPERIMENT_HH
#define RRS_HARNESS_EXPERIMENT_HH

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "area/area.hh"
#include "bpred/bpred.hh"
#include "core/params.hh"
#include "harness/sampling.hh"
#include "mem/memsystem.hh"
#include "obs/stallcause.hh"
#include "rename/scheme.hh"
#include "workloads/workloads.hh"

namespace rrs::harness {

/**
 * Per-run observability options (obs/ module).  All default off, so
 * the core runs with no observers and the hot sweep path pays one
 * emptiness check per hook.
 */
struct ObsOptions
{
    /**
     * Non-empty: write an O3PipeView pipeline trace (Konata-loadable)
     * of the run to this path.  A sweep under RRS_PIPETRACE sets it to
     * "<prefix>_run<index>.trace" for each run (harness/sweep.hh).
     */
    std::string pipeTracePath;

    /**
     * Rename invariant auditing (rename/audit.hh).  0 defers to the
     * RRS_AUDIT environment variable (and, in assert-enabled builds
     * where RRS_AUDIT is unset, defaults to every-commit auditing); a
     * positive value forces auditing on: 1 audits after every
     * committed instruction, N > 1 audits every N cycles.  Post-squash
     * and post-flush audits always run whenever auditing is on.  Any
     * violation panics with the structured report, so it can never
     * silently skew a published table.  An auditing run also keeps a
     * flight recorder (obs/flightrec.hh) of its last 256 rename and
     * pipeline events, which the panic dumps.
     */
    Cycles auditInterval = 0;

    /** Force auditing off even if RRS_AUDIT / the debug default set it. */
    bool auditDisabled = false;
};

/** One timing-run configuration. */
struct RunConfig
{
    /**
     * Rename-scheme registry key (rename/scheme.hh), e.g. "baseline"
     * or "reuse".  Resolve it with rename::findRenameScheme at
     * config-parse time (the sweep-matrix parser does) so an unknown
     * name is a diagnostic, never a crash mid-sweep.
     */
    std::string scheme = "baseline";
    rename::SchemeParams rename;         //!< per-scheme parameter blocks
    core::CoreParams core;
    mem::MemSystemParams mem;
    bpred::BPredParams bpred;
    ObsOptions obs;                      //!< tracing / auditing, off by default
    std::uint64_t maxInsts = 0;          //!< 0: workload default

    /**
     * SMARTS-style sampled simulation (harness/sampling.hh).  Disabled
     * by default: exact mode takes the identical code path it always
     * did, bit for bit.  Enabled, the run alternates functional-warm
     * spans and detailed windows and Outcome::sampled reports the
     * windowed IPC statistics.
     */
    SamplingParams sampling;
};

/**
 * One occupancy sample, taken at the end of every cycle with
 * cycle % 128 == 0.  Fig. 9 reads the sharing counts; the telemetry
 * trace plots every field.
 */
struct OccupancySample
{
    Tick tick = 0;
    std::uint32_t freeInt = 0;     //!< free physical int registers
    std::uint32_t freeFp = 0;      //!< free physical fp registers
    /** Registers of both classes whose version counter is >= k, k = 1..3. */
    std::array<std::uint32_t, 3> sharedAtLeast{};
    std::uint32_t rob = 0;         //!< occupied ROB entries
    std::uint32_t iq = 0;          //!< occupied issue-queue entries
    std::uint32_t lsq = 0;         //!< occupied load/store-queue entries

    bool operator==(const OccupancySample &) const = default;
};

/**
 * Everything a run reports.  A ledger node stores its deterministic
 * results (harness/ledger.hh) and parses back into the same type.
 */
struct Outcome
{
    core::SimResult sim;
    double condAccuracy = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t exceptions = 0;

    // Renamer-side numbers (reuse scheme only where marked).
    std::uint64_t allocations = 0;
    std::uint64_t reuses = 0;           //!< reuse scheme
    std::uint64_t repairs = 0;          //!< reuse scheme
    std::uint64_t renameStalls = 0;     //!< cycles rename found no register
    std::uint64_t historyPeak = 0;      //!< peak rename-history entries
    rename::PredictorBreakdown fig12;   //!< reuse scheme

    // Invariant auditing (0 audits when auditing is off; violations
    // can only be non-zero transiently in tests — the harness check()
    // path panics on the first one).
    std::uint64_t auditsRun = 0;
    std::uint64_t auditViolations = 0;

    /**
     * Full-cycle stall attribution: every cycle of the run charged to
     * exactly one cause (stalls.sum() == sim.cycles, asserted by the
     * core at end of run).
     */
    obs::StallBreakdown stalls;

    /**
     * The occupancy series: one sample per cycle with cycle % 128 ==
     * 0, filled only when runOn's sampleOccupancy is set.
     */
    std::vector<OccupancySample> occupancy;

    /**
     * Sampled-run statistics (enabled only when RunConfig::sampling
     * was).  In sampled mode `sim` holds the detailed-portion
     * aggregates (windows only, fill included).
     */
    SampledSummary sampled;

    /** The headline IPC: the sampled mean when sampling, sim otherwise. */
    double
    reportedIpc() const
    {
        return sampled.enabled ? sampled.meanIpc : sim.ipc();
    }
};

/**
 * Replay one captured trace under one configuration (config.maxInsts
 * is not read: the trace's length is the run's).
 * @param sampleOccupancy fill Outcome::occupancy.
 */
Outcome runOn(const trace::TracePtr &trace, const RunConfig &config,
              bool sampleOccupancy = false);

/** runOn over the workload's trace from traceCache(), charged to it. */
Outcome runOn(const workloads::Workload &w, const RunConfig &config,
              bool sampleOccupancy = false);

/**
 * Recompute Table III with the area model: fixed shadow banks as in
 * the preset, bank0 solved so total area matches the baseline file of
 * `baselineRegs` registers of `bits` bits (including the PRT / IQ /
 * predictor overheads charged once against the int file).
 */
rename::BankConfig solveEqualAreaBanks(const area::AreaModel &model,
                                       std::uint32_t baselineRegs,
                                       std::uint32_t bits,
                                       bool chargeOverheads);

/**
 * RunConfig for any registered scheme at the baseline-equivalent size
 * N: the scheme's configureEqualArea hook derives its same-area
 * configuration (the baseline scheme just takes N registers per
 * class).  Fatal on an unknown scheme name.
 */
RunConfig schemeConfig(const std::string &scheme,
                       std::uint32_t baselineRegs);

/**
 * Build the standard RunConfig pair for a baseline size N: the
 * baseline renamer with N regs per class, and the proposed renamer
 * with the Table III equal-area bank configuration.  Shorthands for
 * schemeConfig("baseline", N) / schemeConfig("reuse", N).
 */
RunConfig baselineConfig(std::uint32_t regsPerClass);
RunConfig reuseConfig(std::uint32_t baselineRegsPerClass);

/** Geometric mean of positive values. */
double geomean(const std::vector<double> &values);

} // namespace rrs::harness

#endif // RRS_HARNESS_EXPERIMENT_HH
