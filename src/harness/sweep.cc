#include "sweep.hh"

#include <chrono>
#include <cstdlib>

#include "common/logging.hh"
#include "harness/tracecache.hh"
#include "obs/profiler.hh"
#include "obs/progress.hh"
#include "obs/telemetry.hh"

namespace rrs::harness {

std::uint64_t
sweepSeed(std::uint64_t base, std::size_t index)
{
    // SplitMix64 finaliser over (base, index): decorrelated per-run
    // streams that depend only on the submission index, never on the
    // execution schedule.
    std::uint64_t z =
        base + 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(index) + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

SweepRunner::SweepRunner(unsigned threads) : pool(threads)
{
    if (const char *env = std::getenv("RRS_PIPETRACE"))
        tracePrefix = env;
}

std::vector<SweepResult>
SweepRunner::run(const std::vector<SweepItem> &items)
{
    using Clock = std::chrono::steady_clock;

    std::vector<SweepResult> results(items.size());

    // Host-side phase profiling (obs/profiler.hh): the whole sweep is
    // one phase on the calling thread; each run records into its own
    // phase table, bound to whichever lane executes it, and the tables
    // are merged after the join in submission order — so the profile's
    // counts, like the Outcomes, are identical for every RRS_THREADS.
    const bool prof = obs::Profiler::enabled();
    obs::ScopedPhase sweepPhase("sweep");
    std::vector<obs::PhaseTable> runTables(items.size());

    // Telemetry (obs/telemetry.hh): one pre-sized buffer per run —
    // same single-writer-then-merge discipline as the result slots and
    // the profiler's run tables, so the exported trace is bit-identical
    // for every thread count.
    const std::string telemetryOut = obs::telemetryDir();
    std::vector<obs::RunTelemetry> runTelem(
        telemetryOut.empty() ? 0 : items.size());

    // Live heartbeat (obs/progress.hh): stderr only, so stdout tables
    // and the footer stay byte-identical with progress on or off.
    obs::ProgressReporter progress(
        items.size(), obs::ProgressReporter::enabledByEnv());

    const auto sweepStart = Clock::now();
    const TraceCache::Counters cacheBefore = traceCache().counters();
    pool.parallelFor(items.size(), [&](std::size_t i) {
        const SweepItem &item = items[i];
        rrs_assert(item.workload != nullptr, "sweep item needs a workload");
        obs::Profiler::Bind bind(&runTables[i]);
        RunConfig cfg = item.config;
        cfg.core.seed = sweepSeed(cfg.core.seed,
                                  item.seedIndex == SweepItem::autoSeedIndex
                                      ? i
                                      : item.seedIndex);
        if (!runTelem.empty())
            cfg.obs.telemetry = &runTelem[i];
        progress.beginRun(i, item.workload->name + " x " + cfg.scheme);

        // Per-run trace files, named by submission index so the set of
        // files depends only on the sweep, never on the schedule.
        const std::string &prefix = cfg.obs.pipeTracePath.empty()
                                        ? tracePrefix
                                        : cfg.obs.pipeTracePath;
        if (!prefix.empty()) {
            cfg.obs.pipeTracePath =
                prefix + "_run" + std::to_string(i) + ".trace";
        }

        const auto t0 = Clock::now();
        results[i].outcome = runOn(*item.workload, cfg,
                                   item.sampleSharing);
        const std::chrono::duration<double> dt = Clock::now() - t0;
        results[i].wallSeconds = dt.count();
        progress.endRun(i, results[i].outcome.sim.committedInsts);
    });
    progress.finish();
    const std::chrono::duration<double> sweepDt =
        Clock::now() - sweepStart;
    const TraceCache::Counters cacheAfter = traceCache().counters();

    // The lanes have joined (parallelFor returned): fold the result
    // slots in submission order, so no floating-point sum depends on
    // which run finished first.
    obs::ScopedPhase mergePhase("stats-merge");
    lastSummary = SweepSummary{};
    lastSummary.threads = pool.numThreads();
    lastSummary.runs = items.size();
    lastSummary.wallSeconds = sweepDt.count();
    for (std::size_t i = 0; i < results.size(); ++i) {
        const SweepResult &r = results[i];
        lastSummary.runSecondsTotal += r.wallSeconds;
        if (i == 0 || r.wallSeconds < lastSummary.runSecondsMin)
            lastSummary.runSecondsMin = r.wallSeconds;
        if (i == 0 || r.wallSeconds > lastSummary.runSecondsMax)
            lastSummary.runSecondsMax = r.wallSeconds;
        lastSummary.instsCommitted += r.outcome.sim.committedInsts;
        lastSummary.cyclesSimulated += r.outcome.sim.cycles;
        lastSummary.auditsRun +=
            static_cast<std::uint64_t>(r.outcome.auditsRun);
        lastSummary.auditViolations +=
            static_cast<std::uint64_t>(r.outcome.auditViolations);
    }
    lastSummary.traceHits = cacheAfter.hits - cacheBefore.hits;
    lastSummary.traceMisses = cacheAfter.misses - cacheBefore.misses;
    lastSummary.instsCaptured =
        cacheAfter.capturedInsts - cacheBefore.capturedInsts;
    lastSummary.instsReplayed =
        cacheAfter.replayedInsts - cacheBefore.replayedInsts;
    if (prof) {
        // Submission-order merge of the per-run phase tables.
        for (const auto &t : runTables)
            obs::Profiler::addRun(t);
    }

    // Serialise the telemetry buffers in submission order (the trace
    // tid is the run index) — post-join, like every other merge here,
    // so the file bytes never depend on the execution schedule.
    telemetryPath.clear();
    if (!runTelem.empty()) {
        obs::TelemetrySweepInfo info;
        info.label = telemetryLabel;
        info.runs = items.size();
        info.capturedInsts = lastSummary.instsCaptured;
        info.replayedInsts = lastSummary.instsReplayed;
        info.packedRecords =
            cacheAfter.packedRecords - cacheBefore.packedRecords;
        std::vector<const obs::RunTelemetry *> buffers;
        buffers.reserve(runTelem.size());
        for (const obs::RunTelemetry &rt : runTelem)
            buffers.push_back(&rt);
        telemetryPath = obs::writeSweepTrace(telemetryOut, info, buffers);
    }
    return results;
}

std::vector<Outcome>
SweepRunner::outcomes(const std::vector<SweepItem> &items)
{
    std::vector<SweepResult> results = run(items);
    std::vector<Outcome> out;
    out.reserve(results.size());
    for (auto &r : results)
        out.push_back(std::move(r.outcome));
    return out;
}

std::string
formatSweepFooter(const SweepSummary &s)
{
    char buf[384];
    // Minst/s counts only timing-simulation work; the functional
    // emulation spent capturing traces (paid once per workload/cap,
    // not once per run) is reported separately so throughput stays
    // honest now that streams replay from the cache.
    std::snprintf(buf, sizeof(buf),
                  "sweep: %zu runs in %.2f s on %u thread%s "
                  "(%.1f runs/s, %.2f Minst/s simulated, "
                  "%.0f%% utilisation)\n"
                  "trace cache: %llu hit%s / %llu miss%s, "
                  "%.2f Minst captured once, %.2f Minst replayed\n",
                  s.runs, s.wallSeconds, s.threads,
                  s.threads == 1 ? "" : "s", s.runsPerSec(),
                  s.instsPerSec() / 1e6, 100.0 * s.utilisation(),
                  static_cast<unsigned long long>(s.traceHits),
                  s.traceHits == 1 ? "" : "s",
                  static_cast<unsigned long long>(s.traceMisses),
                  s.traceMisses == 1 ? "" : "es",
                  static_cast<double>(s.instsCaptured) / 1e6,
                  static_cast<double>(s.instsReplayed) / 1e6);
    std::string out = buf;
    // Only mention auditing when it actually ran (RRS_AUDIT / debug
    // builds): zero violations here is a per-sweep self-check receipt.
    if (s.auditsRun > 0) {
        std::snprintf(buf, sizeof(buf),
                      "rename audit: %llu invariant check%s, "
                      "%llu violation%s\n",
                      static_cast<unsigned long long>(s.auditsRun),
                      s.auditsRun == 1 ? "" : "s",
                      static_cast<unsigned long long>(s.auditViolations),
                      s.auditViolations == 1 ? "" : "s");
        out += buf;
    }
    return out;
}

void
SweepRunner::printSummary(std::ostream &os) const
{
    os << formatSweepFooter(lastSummary);
}

} // namespace rrs::harness
