#include "sweep.hh"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <sstream>

#include "common/atomicfile.hh"
#include "common/logging.hh"
#include "harness/tracecache.hh"
#include "obs/profiler.hh"
#include "obs/progress.hh"
#include "obs/telemetry.hh"
#include "stats/stats.hh"

namespace rrs::harness {

namespace {

/** Process-wide sweep sequence number for telemetry file names. */
std::atomic<std::uint64_t> telemetrySeq{0};

void
writeThreadName(std::ostream &os, std::size_t tid, const std::string &name)
{
    os << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
       << ",\"name\":\"thread_name\",\"args\":{\"name\":"
       << stats::jsonQuoted(name) << "}}";
}

/** A complete ("X") event on its own line; `args` is rendered JSON members. */
void
writeSpan(std::ostream &os, std::size_t tid, const char *name,
          std::uint64_t ts, std::uint64_t dur, const std::string &args)
{
    os << ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":" << tid
       << ",\"name\":\"" << name << "\",\"ts\":" << ts
       << ",\"dur\":" << dur << ",\"args\":{" << args << "}}";
}

} // namespace

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

std::uint64_t
SweepItem::runSeed(std::size_t index) const
{
    return sweepSeed(config.core.seed,
                     seedIndex == autoSeedIndex ? index : seedIndex);
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

    // Telemetry (RRS_TELEMETRY): every run samples its occupancy into
    // its Outcome, and the trace is rendered from the results after
    // the join.
    const std::string telemetryOut = obs::telemetryDir();

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
        cfg.core.seed = item.runSeed(i);
        progress.beginRun(i, item.workload->name + " x " + cfg.scheme);

        // Per-run pipe traces, named by submission index so the set of
        // files depends only on the sweep, never on the schedule.
        if (!tracePrefix.empty()) {
            cfg.obs.pipeTracePath =
                tracePrefix + "_run" + std::to_string(i) + ".trace";
        }

        const auto t0 = Clock::now();
        results[i].outcome =
            runOn(*item.workload, cfg,
                  item.sampleSharing || !telemetryOut.empty());
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
    for (const SweepResult &r : results) {
        lastSummary.runSecondsTotal += r.wallSeconds;
        lastSummary.instsCommitted += r.outcome.sim.committedInsts;
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
    lastSummary.recordsPacked =
        cacheAfter.packedRecords - cacheBefore.packedRecords;
    if (prof) {
        // Submission-order merge of the per-run phase tables.
        for (const auto &t : runTables)
            obs::Profiler::addRun(t);
    }

    // The trace is written post-join from the results, in submission
    // order (tid = run index), so its bytes never depend on the
    // schedule.  An empty sweep writes no file.
    telemetryPath.clear();
    if (!telemetryOut.empty() && !items.empty()) {
        const std::string path =
            telemetryOut + "/" + telemetryLabel + "_sweep" +
            std::to_string(telemetrySeq.fetch_add(1)) + ".trace.json";
        std::string error;
        if (tryWriteFileAtomic(path,
                               renderSweepTrace(telemetryLabel, items,
                                                results, lastSummary),
                               error))
            telemetryPath = path;
        else
            rrs_warn("telemetry: could not write trace '%s': %s",
                     path.c_str(), error.c_str());
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
renderSweepTrace(const std::string &label,
                 const std::vector<SweepItem> &items,
                 const std::vector<SweepResult> &results,
                 const SweepSummary &summary)
{
    std::ostringstream os;
    // One event per line: the file diffs cleanly and stays one valid
    // JSON document ("traceEvents" array form, which Perfetto and
    // chrome://tracing both load).  1 trace microsecond is 1 cycle.
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    os << "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
          "\"args\":{\"name\":"
       << stats::jsonQuoted("rrsim " + label +
                            " (simulated time: 1us = 1 cycle)")
       << "}}";

    for (std::size_t i = 0; i < items.size(); ++i) {
        const std::string &workload = items[i].workload->name;
        const std::string &scheme = items[i].config.scheme;
        const Outcome &out = results[i].outcome;
        const std::string insts = std::to_string(out.sim.committedInsts);
        os << ",\n";
        writeThreadName(os, i,
                        "run " + std::to_string(i) + ": " + workload +
                            " x " + scheme);
        writeSpan(os, i, "run", 0, out.sim.cycles,
                  "\"workload\":" + stats::jsonQuoted(workload) +
                      ",\"scheme\":" + stats::jsonQuoted(scheme) +
                      ",\"seed\":" + std::to_string(items[i].runSeed(i)) +
                      ",\"insts\":" + insts + ",\"cycles\":" +
                      std::to_string(out.sim.cycles) + ",\"ipc\":" +
                      stats::jsonNumber(out.sim.ipc()));
        writeSpan(os, i, "simulate", 0, out.sim.cycles,
                  "\"insts\":" + insts + ",\"rename_stalls\":" +
                      stats::jsonNumber(out.renameStalls) +
                      ",\"mispredicts\":" +
                      stats::jsonNumber(out.mispredicts));
        // Chrome keys counter tracks by (pid, name), not tid, so the
        // run index goes into the track name.
        for (const OccupancySample &s : out.occupancy) {
            os << ",\n{\"ph\":\"C\",\"pid\":1,\"tid\":" << i
               << ",\"name\":\"occupancy (run " << i
               << ")\",\"ts\":" << s.tick << ",\"args\":{\"freeInt\":"
               << s.freeInt << ",\"freeFp\":" << s.freeFp
               << ",\"shared\":" << s.sharedAtLeast[0]
               << ",\"rob\":" << s.rob << ",\"iq\":" << s.iq
               << ",\"lsq\":" << s.lsq << "}}";
        }
    }

    // The sweep track rides above the runs (tid = run count).  Capture
    // work has no cycle clock and which run captures depends on the
    // schedule, so the track is denominated in instructions and shows
    // the sweep's trace-cache traffic: capture, then column packing
    // (in records), then the merge.
    const std::size_t sweepTid = items.size();
    os << ",\n";
    writeThreadName(os, sweepTid, "sweep (1us = 1 emulated inst)");
    writeSpan(os, sweepTid, "capture", 0, summary.instsCaptured,
              "\"captured_insts\":" +
                  std::to_string(summary.instsCaptured) +
                  ",\"replayed_insts\":" +
                  std::to_string(summary.instsReplayed));
    writeSpan(os, sweepTid, "pack", summary.instsCaptured,
              summary.recordsPacked,
              "\"packed_records\":" +
                  std::to_string(summary.recordsPacked));
    writeSpan(os, sweepTid, "stats-merge",
              summary.instsCaptured + summary.recordsPacked, 0,
              "\"runs\":" + std::to_string(summary.runs));
    os << "\n]}\n";
    return os.str();
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
