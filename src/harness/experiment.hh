/**
 * @file
 * Experiment harness: assembles a full rig (core + renamer + memory +
 * branch predictor + workload), runs it, and extracts the numbers the
 * paper's tables and figures report.  runOn is also the one place
 * that wires core observers (obs/observer.hh): the pipe tracer, the
 * flight recorder, the rename auditor's trigger points, the Fig. 9
 * sharing series and the telemetry occupancy track.  Also owns the
 * equal-area sizing logic (Table III) that maps a baseline
 * register-file size to the proposed 4-bank organisation of the same
 * total area.
 */

#ifndef RRS_HARNESS_EXPERIMENT_HH
#define RRS_HARNESS_EXPERIMENT_HH

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

namespace rrs::obs {
class RunTelemetry;
}

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
     * of the run to this path.  In a sweep this acts as a prefix: the
     * runner appends "_run<index>.trace" so parallel runs never share
     * a file (see SweepRunner::setTracePrefix / RRS_PIPETRACE).
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
     * silently skew a published table.
     */
    Cycles auditInterval = 0;

    /** Force auditing off even if RRS_AUDIT / the debug default set it. */
    bool auditDisabled = false;

    /**
     * Telemetry event buffer (obs/telemetry.hh).  Non-null: the run
     * records its spans ("run", "simulate") and the occupancy track
     * (free int/fp, shared, ROB, IQ, LSQ every 128 cycles) into the
     * buffer; the sweep runner owns one buffer per submission index
     * and serialises them post-join (RRS_TELEMETRY).
     * Null (the default): no telemetry work at all.
     */
    obs::RunTelemetry *telemetry = nullptr;

    /**
     * Crash-time flight recorder depth (obs/flightrec.hh): how many
     * recent rename/pipeline events to keep for the crash dump.
     * 0 defers to RRS_FLIGHTREC_DEPTH — and when that is unset too,
     * auditing (RRS_AUDIT) being on implies a default depth of 256,
     * so an audit violation always dumps forensics.  Any positive
     * value forces the recorder on at that depth.
     */
    std::uint32_t flightRecDepth = 0;
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

/** Everything a run reports. */
struct Outcome
{
    core::SimResult sim;
    double condAccuracy = 0;
    double mispredicts = 0;
    double exceptions = 0;

    // Renamer-side numbers (reuse scheme only where marked).
    double allocations = 0;
    double reuses = 0;           //!< reuse scheme
    double repairs = 0;          //!< reuse scheme
    double renameStalls = 0;
    double historyPeak = 0;      //!< peak rename-history entries
    rename::PredictorBreakdown fig12;          //!< reuse scheme

    // Invariant auditing (0 audits when auditing is off; violations
    // can only be non-zero transiently in tests — the harness check()
    // path panics on the first one).
    double auditsRun = 0;
    double auditViolations = 0;

    /**
     * Full-cycle stall attribution: every cycle of the run charged to
     * exactly one cause (stalls.sum() == sim.cycles, asserted by the
     * core at end of run).
     */
    obs::StallBreakdown stalls;

    /**
     * Time series of shared-register occupancy (Fig. 9 sampling): one
     * point per cycle with cycle % 128 == 0, filled only when runOn's
     * sampleSharing is set.
     */
    std::vector<std::uint32_t> sharedAtLeast1;
    std::vector<std::uint32_t> sharedAtLeast2;
    std::vector<std::uint32_t> sharedAtLeast3;

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

/** Run one workload under one configuration. */
Outcome runOn(const workloads::Workload &w, const RunConfig &config,
              bool sampleSharing = false);

/**
 * Bank configuration for a given baseline size.
 * @param paperPreset true: the paper's Table III row; false (default):
 *        this repository's tuned row.
 */
rename::BankConfig equalAreaBanks(std::uint32_t baselineRegs,
                                  bool paperPreset = false);

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
 * The Table III sizing loop: solve the equal-area bank configuration
 * for a whole column of baseline sizes at once, fanned out across the
 * thread pool (each size's solve is independent).  Results come back
 * in input order and are identical for every thread count.
 * @param threads execution lanes; 0 picks RRS_THREADS / hardware.
 */
std::vector<rename::BankConfig> solveEqualAreaTable(
    const area::AreaModel &model,
    const std::vector<std::uint32_t> &baselineSizes, std::uint32_t bits,
    bool chargeOverheads, unsigned threads = 0);

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
