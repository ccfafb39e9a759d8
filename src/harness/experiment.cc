#include "experiment.hh"

#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "common/strutils.hh"
#include "core/o3core.hh"
#include "harness/sampling.hh"
#include "harness/tracecache.hh"
#include "obs/flightrec.hh"
#include "obs/observer.hh"
#include "obs/pipetrace.hh"
#include "obs/profiler.hh"
#include "rename/audit.hh"

namespace rrs::harness {

namespace {

/**
 * The process-wide audit default from RRS_AUDIT: nullopt when the
 * variable is unset or empty, otherwise its value (0 disables, 1
 * audits after every commit, N > 1 audits every N cycles).  Read
 * during static initialisation so a malformed or too-large value dies
 * cleanly before any sweep worker starts (rrs_fatal from inside a pool
 * thread would race process teardown).
 */
const std::optional<std::int64_t> envAuditDefault =
    envCount("RRS_AUDIT", 0, std::numeric_limits<std::int64_t>::max());

/** Resolve a run's audit interval (0 = auditing off). */
Cycles
resolveAuditInterval(const ObsOptions &obs)
{
    if (obs.auditDisabled)
        return 0;
    if (obs.auditInterval > 0)
        return obs.auditInterval;
    if (envAuditDefault)
        return static_cast<Cycles>(*envAuditDefault);
#ifndef NDEBUG
    // Assert-enabled builds self-check at every commit by default.
    return 1;
#else
    return 0;
#endif
}

/** Events the flight recorder keeps for an auditing run's crash dump. */
constexpr std::uint32_t flightRecEvents = 256;

// --- Core observers (obs/observer.hh) that read the renamer or the
// core.  runOn is their only wiring point.

/** The occupancy sampler's cadence. */
constexpr Cycles samplePeriod = 128;

/**
 * Feeds the flight recorder one event per rename allocation, commit,
 * squash and flush: cycle, destination tag and free-list depths.
 */
class FlightFeed : public obs::CoreObserver
{
  public:
    FlightFeed(obs::FlightRecorder &rec, const rename::Renamer &ren)
        : rec(rec), ren(ren)
    {
    }

    void
    rename(std::uint64_t seq, const obs::DestTag &dest, Tick now) override
    {
        record(obs::FlightEventKind::Alloc, seq, dest, now);
    }

    void
    commit(std::uint64_t seq, const obs::DestTag &dest, Tick now) override
    {
        record(obs::FlightEventKind::Commit, seq, dest, now);
    }

    void
    flush(obs::FlushScope scope, std::uint64_t seq, Tick now) override
    {
        record(scope == obs::FlushScope::Younger
                   ? obs::FlightEventKind::Squash
                   : obs::FlightEventKind::Flush,
               seq, obs::DestTag{}, now);
    }

  private:
    void
    record(obs::FlightEventKind kind, std::uint64_t seq,
           const obs::DestTag &dest, Tick now)
    {
        obs::FlightEvent e;
        e.cycle = now;
        e.seq = seq;
        e.kind = kind;
        if (dest.valid()) {
            e.cls = dest.cls == RegClass::Float ? 1 : 0;
            e.reg = dest.reg;
            e.version = dest.version;
        }
        e.freeInt = static_cast<std::int32_t>(ren.freeRegs(RegClass::Int));
        e.freeFp =
            static_cast<std::int32_t>(ren.freeRegs(RegClass::Float));
        rec.record(e);
    }

    obs::FlightRecorder &rec;
    const rename::Renamer &ren;
};

/**
 * The rename auditor's trigger points: after every squash and every
 * flush; then either after every commit (interval 1) or every
 * `interval` cycles (interval > 1).
 */
class AuditTriggers : public obs::CoreObserver
{
  public:
    AuditTriggers(rename::RenameAuditor &auditor,
                  const rename::Renamer &ren, Cycles interval)
        : auditor(auditor), ren(ren), interval(interval)
    {
    }

    void
    commit(std::uint64_t, const obs::DestTag &, Tick) override
    {
        if (interval == 1)
            auditor.check(ren, "post-commit");
    }

    void
    flush(obs::FlushScope scope, std::uint64_t, Tick) override
    {
        auditor.check(ren, scope == obs::FlushScope::Younger
                               ? "post-squash"
                               : "post-flush");
    }

    void
    sample(Tick now) override
    {
        if (interval > 1 && now % interval == 0)
            auditor.check(ren, "periodic");
    }

  private:
    rename::RenameAuditor &auditor;
    const rename::Renamer &ren;
    Cycles interval;
};

/**
 * The occupancy series behind Fig. 9 and the telemetry trace: free
 * registers, registers shared at >= 1, 2 and 3 versions, and ROB, IQ
 * and LSQ occupancy, every 128 cycles.
 */
class OccupancySampler : public obs::CoreObserver
{
  public:
    OccupancySampler(std::vector<OccupancySample> &out,
                     const rename::Renamer &ren, const core::O3Core &core)
        : out(out), ren(ren), core(core)
    {
    }

    void
    sample(Tick now) override
    {
        if (now % samplePeriod != 0)
            return;
        OccupancySample &s = out.emplace_back();
        s.tick = now;
        s.freeInt = ren.freeRegs(RegClass::Int);
        s.freeFp = ren.freeRegs(RegClass::Float);
        for (std::uint8_t k = 1; k <= 3; ++k)
            s.sharedAtLeast[k - 1] = ren.sharedAtLeast(RegClass::Int, k) +
                                     ren.sharedAtLeast(RegClass::Float, k);
        s.rob = core.robSize();
        s.iq = core.iqSize();
        s.lsq = core.lsqSize();
    }

  private:
    std::vector<OccupancySample> &out;
    const rename::Renamer &ren;
    const core::O3Core &core;
};

/** runOn over `trace`, setting `replayed` to the records it fed. */
Outcome
replay(const trace::TracePtr &trace, const RunConfig &config,
       bool sampleOccupancy, std::uint64_t &replayed)
{
    trace::ReplayStream stream(trace);
    mem::MemSystem mem(config.mem);
    bpred::BranchPredictor bp(config.bpred);

    // String-keyed scheme dispatch: the scheme table (rename/scheme.hh)
    // builds the renamer, prices it, and reads its counters back, so
    // this path never names a concrete scheme type.
    const rename::RenameScheme &scheme =
        rename::renameScheme(config.scheme);
    std::unique_ptr<rename::Renamer> renamer =
        scheme.makeRenamer(config.rename);

    core::O3Core core(config.core, *renamer, mem, bp, stream);
    Outcome out;

    // Observers (obs/observer.hh) are called in registration order at
    // every hook.  The flight recorder goes before the auditor, so a
    // crash dump ends with the event that tripped the audit.
    const Cycles auditEvery = resolveAuditInterval(config.obs);
    const bool auditing = auditEvery > 0;

    // Crash-time forensics for an auditing run: keep the last
    // flightRecEvents rename/pipeline events so a panic (e.g. an audit
    // violation) or fatal dumps what the rename stage just did, along
    // with the run's identity.
    std::unique_ptr<obs::FlightRecorder> flightRec;
    std::optional<FlightFeed> flightFeed;
    if (auditing) {
        flightRec = std::make_unique<obs::FlightRecorder>(flightRecEvents);
        flightRec->setContext("workload", trace->workload());
        flightRec->setContext("scheme", config.scheme);
        flightRec->setContext("sweep_seed",
                              std::to_string(config.core.seed));
        flightRec->setContext("max_insts",
                              std::to_string(config.maxInsts));
        flightRec->setContext("audit_interval",
                              std::to_string(auditEvery));
        flightRec->arm();
        core.addObserver(flightFeed.emplace(*flightRec, *renamer));
    }

    std::optional<rename::RenameAuditor> auditor;
    std::optional<AuditTriggers> auditTriggers;
    if (auditing) {
        core.addObserver(
            auditTriggers.emplace(auditor.emplace(), *renamer, auditEvery));
    }

    std::unique_ptr<obs::PipeTracer> tracer;
    if (!config.obs.pipeTracePath.empty()) {
        tracer = std::make_unique<obs::PipeTracer>(config.obs.pipeTracePath);
        core.addObserver(*tracer);
    }

    std::optional<OccupancySampler> occupancy;
    if (sampleOccupancy)
        core.addObserver(occupancy.emplace(out.occupancy, *renamer, core));

    {
        // The timing-model phase of the run; capture/warmup time is
        // charged inside traceCache().get() above.  Exact mode (the
        // default) is the untouched core.run() path; sampled mode
        // hands the same rig to the SMARTS controller, which owns the
        // warm/detailed/skip schedule over the same stream.
        obs::ScopedPhase phase("simulate");
        if (config.sampling.enabled()) {
            SamplingController sampler(config.sampling, core, stream,
                                       mem, bp);
            out.sampled = sampler.run(out.sim);
        } else {
            out.sim = core.run();
        }
    }
    replayed = stream.replayed();
    out.stalls = core.stallBreakdown();
    out.condAccuracy = bp.condAccuracy();
    out.mispredicts = core.mispredictCount();
    out.exceptions = core.exceptionCount();
    out.renameStalls = core.renameStallCount();
    const rename::SchemeCounters counters = scheme.counters(*renamer);
    out.allocations = counters.allocations;
    out.reuses = counters.reuses;
    out.repairs = counters.repairs;
    out.historyPeak = counters.historyPeak;
    out.fig12 = counters.fig12;
    if (auditor) {
        out.auditsRun = auditor->auditCount();
        out.auditViolations = auditor->violationCount();
    }
    return out;
}

} // namespace

Outcome
runOn(const trace::TracePtr &trace, const RunConfig &config,
      bool sampleOccupancy)
{
    std::uint64_t replayed = 0;
    return replay(trace, config, sampleOccupancy, replayed);
}

Outcome
runOn(const workloads::Workload &w, const RunConfig &config,
      bool sampleOccupancy)
{
    // Capture-once / replay-many: the functional emulation of
    // (workload, cap) happens at most once per process; every run —
    // and every lane of a parallel sweep — replays the shared
    // immutable trace through its own cursor.
    std::uint64_t replayed = 0;
    Outcome out = replay(traceCache().get(w, config.maxInsts), config,
                         sampleOccupancy, replayed);
    traceCache().noteReplayed(replayed);
    return out;
}

rename::BankConfig
solveEqualAreaBanks(const area::AreaModel &model,
                    std::uint32_t baselineRegs, std::uint32_t bits,
                    bool chargeOverheads)
{
    rename::BankConfig banks = rename::reuseEqualAreaBanks(baselineRegs);
    double overhead = 0;
    if (chargeOverheads) {
        std::uint32_t total =
            banks[0] + banks[1] + banks[2] + banks[3];
        overhead = model.prtArea(total, 2) +
                   model.iqOverheadArea(40, 4) +
                   model.predictorArea(512, 2);
    }
    std::array<std::uint32_t, 4> shadow = {0, banks[1], banks[2],
                                           banks[3]};
    std::uint32_t n0 = model.equalAreaBank0(baselineRegs, bits, shadow,
                                            overhead, 0);
    banks[0] = n0;
    return banks;
}

RunConfig
schemeConfig(const std::string &scheme, std::uint32_t baselineRegs)
{
    RunConfig cfg;
    cfg.scheme = scheme;
    rename::renameScheme(scheme).configureEqualArea(cfg.rename,
                                                    baselineRegs);
    return cfg;
}

RunConfig
baselineConfig(std::uint32_t regsPerClass)
{
    return schemeConfig("baseline", regsPerClass);
}

RunConfig
reuseConfig(std::uint32_t baselineRegsPerClass)
{
    return schemeConfig("reuse", baselineRegsPerClass);
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double logsum = 0;
    for (double v : values) {
        rrs_assert(v > 0, "geomean needs positive values");
        logsum += std::log(v);
    }
    return std::exp(logsum / static_cast<double>(values.size()));
}

} // namespace rrs::harness
