/**
 * @file
 * rrbench: the repository benchmark program.
 *
 *   rrbench [run] --workload <name> [--seed N] [--seconds S] [--trace 0|1]
 *   rrbench reference --workload <name>
 *   rrbench selftest
 *
 * `run` sets up the workload's inputs cold several times (setup_s is the
 * fastest round), then makes as many untraced timed passes over every
 * run as fit --seconds at the workload's nominal pass time, checks every
 * output, and prints each end-to-end metric.  With --trace 1 it also
 * interleaves traced passes and standalone layer replays and prints the
 * per-layer metrics instead; the spans go to
 * .bench_out/ under the checkout.  The last line of stdout is always one
 * JSON object {"correct", "attempted", "failed", "metrics"}.
 *
 * `reference` writes the stored exact results the checks and
 * sampling_err_pct compare against (untimed).  `selftest` checks the
 * benchmark itself.  See perfbench/README.md.
 */

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <sstream>
#include <string>

#include "bench.hh"
#include "common/logging.hh"
#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "harness/tracecache.hh"
#include "rename/scheme.hh"
#include "timed.hh"

using namespace rrs;
using namespace rrbench;

namespace {

/**
 * Variables that change what a timed run does (extra checks, tracing,
 * spilling, a different schedule).  The benchmark refuses them rather
 * than turning anything off itself.
 */
const char *const refusedEnv[] = {
    "RRS_AUDIT",    "RRS_PROF",          "RRS_TELEMETRY",
    "RRS_PIPETRACE", "RRS_TRACE_DIR",    "RRS_SAMPLE",
    "RRS_FLIGHTREC_DEPTH", "RRS_PROGRESS", "RRS_SAMPLE_DEBUG",
};

void
refuseEnvironment()
{
    for (const char *name : refusedEnv) {
        if (std::getenv(name))
            rrs_fatal("rrbench: refusing to run with %s set: it changes "
                      "what the timed runs do; unset it", name);
    }
#ifndef NDEBUG
    rrs_fatal("rrbench: refusing an assert-enabled build (NDEBUG unset): "
              "the library would audit every commit by default; build "
              "with -DCMAKE_BUILD_TYPE=Release");
#endif
}

struct Options
{
    std::string command = "run";
    std::string workload;
    std::uint64_t seed = defaultSeed;
    double seconds = 10;
    bool trace = false;
};

/** Sweep lanes of the untimed `reference` command. */
constexpr unsigned referenceLanes = 2;

std::uint64_t
parseUnsigned(const char *flag, const char *text)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || errno != 0 || text[0] == '-')
        rrs_fatal("rrbench: %s needs a non-negative integer, got '%s'",
                  flag, text);
    return v;
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    int i = 1;
    if (i < argc && argv[i][0] != '-')
        o.command = argv[i++];
    if (o.command != "run" && o.command != "reference" &&
        o.command != "selftest")
        rrs_fatal("rrbench: unknown command '%s' (run, reference, "
                  "selftest)", o.command.c_str());
    for (; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            rrs_fatal("rrbench: %s needs a value", flag.c_str());
        const char *val = argv[++i];
        if (flag == "--workload") {
            o.workload = val;
        } else if (flag == "--seed") {
            o.seed = parseUnsigned("--seed", val);
        } else if (flag == "--seconds") {
            char *end = nullptr;
            o.seconds = std::strtod(val, &end);
            if (end == val || *end != '\0' || !(o.seconds > 0))
                rrs_fatal("rrbench: --seconds needs a positive number, "
                          "got '%s'", val);
        } else if (flag == "--trace") {
            if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0)
                rrs_fatal("rrbench: --trace must be 0 or 1, got '%s'",
                          val);
            o.trace = val[0] == '1';
        } else {
            rrs_fatal("rrbench: unknown option '%s'", flag.c_str());
        }
    }
    if (o.command != "selftest" && o.workload.empty())
        rrs_fatal("rrbench: --workload is required (exact_fig11, "
                  "sampled_long, synthetic_sweep)");
    return o;
}

/** Instructions a run accounted for: committed, or every sampled record. */
std::uint64_t
accountedInsts(const RunOutcome &o)
{
    return o.sampled.enabled ? o.sampled.detailedInsts +
                                   o.sampled.warmInsts +
                                   o.sampled.skippedInsts
                             : o.sim.committedInsts;
}

/** Geomean of reuse/baseline reported IPC over the plan's pairs. */
double
reuseSpeedup(const std::vector<RunOutcome> &runs)
{
    std::vector<double> ratios;
    for (std::size_t i = 0; i + 1 < runs.size(); i += 2)
        ratios.push_back(runs[i + 1].ipc() / runs[i].ipc());
    return harness::geomean(ratios);
}

/**
 * Mean absolute error (percent) of sampled IPC against the stored exact
 * reference of sampled_long, which holds the default seed's exact runs.
 */
double
samplingErrorPct(const Plan &plan, const std::vector<RunOutcome> &runs)
{
    if (!plan.sampled())
        return 0.0;
    const Plan refPlan = makePlan(plan.name, defaultSeed);
    const Reference ref =
        loadReference(referencePath(plan.name), refPlan);
    double err = 0;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const double exact = ref.runs[i].ipc();
        err += std::fabs(runs[i].ipc() - exact) / exact;
    }
    return 100.0 * err / static_cast<double>(runs.size());
}

/** Robust times of repeated passes over the same runs. */
struct PassTimes
{
    std::vector<double> runSeconds;   //!< each run's fastest pass
    double overheadSeconds = 0;       //!< median pass time outside runs
    double wallSeconds = 0;           //!< sum of both: one pass's wall
};

/**
 * One time per run, its fastest over the passes; the pass wall is their
 * sum plus the median time the pass spends between runs.  Interference
 * from other tenants of a shared host only ever slows a run down, and
 * it comes and goes within seconds, so the fastest of interleaved
 * repetitions is the steadiest estimate of the run's own cost: on a
 * shared 4-vCPU host it cut the run-to-run spread of exact_fig11's
 * wall_s from 14% (per-run medians) to 6%.
 */
template <typename PassT>
PassTimes
passTimes(const std::vector<PassT> &passes)
{
    PassTimes out;
    std::vector<double> overheads;
    for (const PassT &p : passes) {
        double runSum = 0;
        for (const RunOutcome &o : p.runs)
            runSum += o.wallSeconds;
        overheads.push_back(p.wallSeconds - runSum);
    }
    out.overheadSeconds = median(overheads);
    out.wallSeconds = out.overheadSeconds;
    for (std::size_t i = 0; i < passes.front().runs.size(); ++i) {
        std::vector<double> t;
        for (const PassT &p : passes)
            t.push_back(p.runs[i].wallSeconds);
        out.runSeconds.push_back(minimum(t));
        out.wallSeconds += out.runSeconds.back();
    }
    return out;
}

void
printPassWalls(const std::vector<double> &walls)
{
    std::printf("pass wall seconds:");
    for (double w : walls)
        std::printf(" %.3f", w);
    std::printf("\n");
}

int
runCommand(const Options &opt)
{
    const Plan plan = makePlan(opt.workload, opt.seed);
    // Assembled programs are cached per process; fill that cache before
    // set-up so every round does the same work (it assembles again,
    // explicitly, to time that step).
    for (const workloads::Workload *w : plan.kernels)
        (void)workloads::program(*w);

    SpanLog log;
    SpanLog *spans = opt.trace ? &log : nullptr;

    // --- cold set-up, several rounds; the last one stays resident ---
    const double rssBefore = residentMb();
    std::vector<SetupTimes> rounds;
    std::vector<double> setupTotals, setupWalls;
    for (unsigned r = 0; r < plan.setupRounds; ++r) {
        const bool keep = r + 1 == plan.setupRounds;
        const Clock::time_point t0 = Clock::now();
        rounds.push_back(setupRound(plan, keep, static_cast<int>(r), spans,
                                    nullptr));
        setupWalls.push_back(secondsSince(t0));
        setupTotals.push_back(rounds.back().total());
    }
    const double rssAfterSetup = residentMb();

    // --- timed phase ---
    // The pass count comes from the plan's nominal pass time, not from
    // the clock, so code of any speed takes its fastest-pass times over
    // the same number of samples.  A traced pass follows each untraced
    // one and costs about as much.
    const unsigned nPasses = plan.passesFor(opt.trace ? opt.seconds / 2
                                                      : opt.seconds);
    std::vector<Pass> passes;
    std::vector<TracedPass> traced;
    for (unsigned p = 0; p < nPasses; ++p) {
        passes.push_back(untracedPass(plan));
        if (opt.trace)
            traced.push_back(tracedPass(plan, static_cast<int>(p), log));
    }
    const double peakRss = peakResidentMb();

    // --- output checks ---
    CheckLog checks;
    const std::vector<core::SimResult> first = sims(passes[0].runs);
    if (plan.kind == WorkloadKind::ExactFig11 && plan.seed == defaultSeed) {
        const Reference ref = loadReference(referencePath(plan.name), plan);
        checkPass(plan, passes[0].runs, &ref.runs, "stored reference",
                  "pass0", checks);
    } else {
        checkPass(plan, passes[0].runs, nullptr, "", "pass0", checks);
    }
    for (std::size_t p = 1; p < passes.size(); ++p) {
        checkPass(plan, passes[p].runs, &first, "first pass",
                  "pass" + std::to_string(p), checks);
    }
    for (std::size_t p = 0; p < traced.size(); ++p) {
        checkPass(plan, traced[p].runs, &first, "untraced run",
                  "traced" + std::to_string(p), checks);
    }

    // --- end-to-end metrics ---
    const std::vector<RunOutcome> &runs = passes[0].runs;
    std::vector<double> passWalls;
    for (const Pass &p : passes)
        passWalls.push_back(p.wallSeconds);
    std::uint64_t accounted = 0;
    std::vector<double> ipcs;
    for (const RunOutcome &o : runs) {
        accounted += accountedInsts(o);
        ipcs.push_back(o.ipc());
    }
    const PassTimes times = passTimes(passes);
    std::vector<double> runMs;
    for (double t : times.runSeconds)
        runMs.push_back(1e3 * t);
    const double wall = times.wallSeconds;
    const double failedPct = 100.0 *
                             static_cast<double>(checks.failedRuns) /
                             static_cast<double>(checks.attempted);
    const double samplingErr = samplingErrorPct(plan, runs);

    std::vector<Metric> metrics;
    std::vector<Metric> extra = {
        {"runs_failed_pct", "%", failedPct},
        {"sampling_err_pct", "%", samplingErr},
    };
    if (!opt.trace) {
        metrics = {
            {"setup_s", "s", minimum(setupTotals)},
            {"wall_s", "s", wall},
            {"sim_minst_per_s", "Minst/s",
             static_cast<double>(accounted) / wall / 1e6},
            {"run_ms_p50", "ms", percentile(runMs, 50)},
            {"run_ms_p90", "ms", percentile(runMs, 90)},
            {"peak_rss_mb", "MB", peakRss},
            {"ipc_geomean", "inst/cycle", harness::geomean(ipcs)},
            {"reuse_speedup_geomean", "ratio", reuseSpeedup(runs)},
        };
        extra.push_back({"timed_passes", "count",
                         static_cast<double>(passes.size())});
        printPassWalls(passWalls);
        printResult(checks, metrics, extra);
        return 0;
    }

    // --- per-layer metrics (traced run) ---
    const LayerReplay layers = replayLayers(plan);
    const double synthNs = synthNsPerRecord(plan);
    const double nTraced = static_cast<double>(traced.size());

    std::vector<double> captures, packs, generates;
    std::uint64_t records = rounds.back().records;
    for (const SetupTimes &t : rounds) {
        captures.push_back(t.capture);
        packs.push_back(t.pack);
        generates.push_back(t.generate);
    }
    const double captureS = minimum(captures);

    // Totals over the traced passes; times are reported per pass.
    double simS = 0, runWallS = 0, tracedWallS = 0;
    RenamerCounts rc;
    for (const TracedPass &tp : traced) {
        tracedWallS += tp.wallSeconds;
        for (std::size_t i = 0; i < tp.runs.size(); ++i) {
            simS += tp.simulateSeconds[i];
            runWallS += tp.runs[i].wallSeconds;
            rc += tp.renamer[i];
        }
    }
    simS /= nTraced;
    runWallS /= nTraced;
    tracedWallS /= nTraced;
    const double renS = rc.seconds() / nTraced;

    // Simulated totals of one pass.
    std::uint64_t cycles = 0, insts = 0, warmRecords = 0;
    double mispredicts = 0;
    obs::StallBreakdown stalls;
    std::uint64_t windows = 0, detailed = 0, sampledTotal = 0;
    std::vector<double> ciPct;
    for (const RunOutcome &o : runs) {
        cycles += o.sim.cycles;
        insts += o.sim.committedInsts;
        mispredicts += o.mispredicts;
        for (int c = 0; c < obs::numCycleCauses; ++c)
            stalls.counts[c] += o.stalls.counts[c];
        if (o.sampled.enabled) {
            windows += o.sampled.windows;
            detailed += o.sampled.detailedInsts;
            warmRecords += o.sampled.warmInsts + o.sampled.skippedInsts;
            sampledTotal += accountedInsts(o);
            ciPct.push_back(100.0 * o.sampled.ci95Ipc / o.sampled.meanIpc);
        }
    }
    // Sampled runs spend part of the simulate call warming mem and
    // bpred outside the pipeline; that share is estimated from the
    // standalone replay of the same records.
    const double warmS = static_cast<double>(warmRecords) *
                         layers.warmSecondsPerRecord();
    const double coreS = plan.sampled() ? simS - warmS : simS;
    const double selfS = coreS - renS;

    std::uint64_t captureMisses = 0;
    for (const Pass &p : passes)
        captureMisses += p.captureMisses;

    // Named layers against set-up plus one traced pass: set-up steps,
    // the simulate calls, and the pass outside its runs.
    const double setupStepsS = median(setupTotals);
    const double coverage =
        100.0 * (setupStepsS + simS + (tracedWallS - runWallS)) /
        (median(setupWalls) + tracedWallS);

    auto per = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };
    const double perPass = 1.0 / nTraced;
    const double dInsts = static_cast<double>(insts);
    auto cpi = [&](obs::CycleCause c) {
        return per(static_cast<double>(stalls.of(c)), dInsts);
    };
    using CC = obs::CycleCause;
    metrics = {
        {"emu.capture_s", "s", captureS},
        {"emu.minst_per_s", "Minst/s",
         plan.synthetic() ? 0.0
                          : per(static_cast<double>(records), captureS) /
                                1e6},
        {"trace.pack_s", "s", minimum(packs)},
        {"trace.generate_s", "s", minimum(generates)},
        {"trace.resident_mb", "MB", rssAfterSetup - rssBefore},
        {"trace.synth_ns_per_record", "ns", synthNs},
        {"harness.timed_capture_misses", "count",
         static_cast<double>(captureMisses)},
        {"harness.sweep_overhead_s", "s", times.overheadSeconds},
        {"sampling.run_s", "s", plan.sampled() ? simS : 0.0},
        {"sampling.detailed_fraction", "ratio",
         per(static_cast<double>(detailed),
             static_cast<double>(sampledTotal))},
        {"sampling.windows", "count", static_cast<double>(windows)},
        {"sampling.ci95_pct_p50", "%", median(ciPct)},
        {"sampling.err_pct", "%", samplingErr},
        {"core.run_s", "s", coreS},
        {"core.self_ns_per_cycle", "ns",
         per(selfS * 1e9, static_cast<double>(cycles))},
        {"core.self_ns_per_inst", "ns", per(selfS * 1e9, dInsts)},
        {"core.idle_cycle_ratio", "ratio",
         per(static_cast<double>(cycles - stalls.commitCycles()),
             static_cast<double>(cycles))},
        {"core.squash_ratio", "ratio",
         per(static_cast<double>(rc.renamed - rc.commitCalls),
             static_cast<double>(rc.renamed))},
        {"core.mispredicts_pki", "1/kinst", per(1e3 * mispredicts, dInsts)},
        {"core.cpi.commit", "cycle/inst", cpi(CC::Commit)},
        {"core.cpi.drain", "cycle/inst", cpi(CC::Drain)},
        {"core.cpi.renameNoReg", "cycle/inst", cpi(CC::RenameNoReg)},
        {"core.cpi.renameRob", "cycle/inst", cpi(CC::RenameRob)},
        {"core.cpi.renameIq", "cycle/inst", cpi(CC::RenameIq)},
        {"core.cpi.renameLsq", "cycle/inst", cpi(CC::RenameLsq)},
        {"core.cpi.frontend", "cycle/inst", cpi(CC::Frontend)},
        {"core.cpi.backendExec", "cycle/inst", cpi(CC::BackendExec)},
        {"rename.calls", "count",
         static_cast<double>(rc.renameCalls) * perPass},
        {"rename.ns_per_call", "ns",
         per(rc.renameSeconds * 1e9, static_cast<double>(rc.renameCalls))},
        {"rename.commit_ns_per_call", "ns",
         per(rc.commitSeconds * 1e9, static_cast<double>(rc.commitCalls))},
        {"rename.busy_share", "ratio", per(renS, coreS)},
        {"rename.retry_ratio", "ratio",
         per(static_cast<double>(rc.renameStalls),
             static_cast<double>(rc.renameCalls))},
        {"rename.squash_calls", "count",
         static_cast<double>(rc.squashCalls) * perPass},
        {"rename.squash_ns_per_call", "ns",
         per(rc.squashSeconds * 1e9, static_cast<double>(rc.squashCalls))},
        {"rename.recover_cmds", "count",
         static_cast<double>(rc.recoverCmds) * perPass},
        {"rename.reuse_ratio", "ratio",
         per(static_cast<double>(rc.reused), static_cast<double>(rc.dests))},
        {"rename.repairs_pki", "1/kinst",
         per(1e3 * static_cast<double>(rc.repairs),
             static_cast<double>(rc.commitCalls))},
        {"mem.data_ns_per_access", "ns",
         per(layers.dataSeconds * 1e9,
             static_cast<double>(layers.dataAccesses))},
        {"mem.fetch_ns_per_access", "ns",
         per(layers.fetchSeconds * 1e9,
             static_cast<double>(layers.fetches))},
        {"mem.l1d_miss_ratio", "ratio", layers.l1dMissRatio},
        {"mem.l1i_miss_ratio", "ratio", layers.l1iMissRatio},
        {"mem.l2_miss_ratio", "ratio", layers.l2MissRatio},
        {"mem.tlb_miss_ratio", "ratio", layers.tlbMissRatio},
        {"bpred.ns_per_branch", "ns",
         per(layers.bpredSeconds * 1e9,
             static_cast<double>(layers.branches))},
        {"bpred.cond_accuracy", "ratio",
         per(static_cast<double>(layers.condCorrect),
             static_cast<double>(layers.condBranches))},
        {"bpred.btb_miss_ratio", "ratio",
         per(static_cast<double>(layers.btbMisses),
             static_cast<double>(layers.btbLookups))},
        {"bench.trace_overhead_pct", "%",
         100.0 * (passTimes(traced).wallSeconds / wall - 1.0)},
        {"bench.layer_coverage_pct", "%", coverage},
    };
    const std::string spanPath = std::string(RRBENCH_DIR) +
                                 "/../.bench_out/spans_" + plan.name +
                                 "_" + std::to_string(plan.seed) + ".json";
    log.write(spanPath);
    extra.push_back({"timed_passes", "count",
                     static_cast<double>(passes.size())});
    std::printf("spans: %s (%zu)\n", spanPath.c_str(), log.spans().size());
    printResult(checks, metrics, extra);
    return 0;
}

int
referenceCommand(const Options &opt)
{
    Plan plan = makePlan(opt.workload, defaultSeed);
    if (plan.synthetic())
        rrs_fatal("rrbench: synthetic_sweep has no stored reference");
    // The reference is the exact run of every (kernel, scheme, size).
    harness::SweepRunner runner(referenceLanes);
    std::vector<harness::SweepItem> items;
    for (RunSpec &r : plan.runs) {
        r.config.sampling = harness::SamplingParams{};
        items.push_back(harness::sweepItem(*r.kernel, r.config));
    }
    std::vector<core::SimResult> exact;
    for (const harness::SweepResult &res : runner.run(items))
        exact.push_back(res.outcome.sim);
    const std::string path = referencePath(plan.name);
    writeReference(path, plan, exact);
    std::printf("wrote %s (%zu runs)\n", path.c_str(), exact.size());
    return 0;
}

// --- selftest ------------------------------------------------------------

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    failures += !ok;
}

/**
 * Drive a bare renamer and a decorated one through the same rename,
 * commit and squash calls and compare every query after each step.
 */
void
forwardingTest(const std::string &schemeName)
{
    const rename::RenameScheme &scheme = rename::renameScheme(schemeName);
    const harness::RunConfig cfg = harness::schemeConfig(schemeName, 48);
    std::unique_ptr<rename::Renamer> bare = scheme.makeRenamer(cfg.rename);
    std::unique_ptr<rename::Renamer> inner =
        scheme.makeRenamer(cfg.rename);
    TimedRenamer timed(*inner);

    const trace::TracePtr tr = harness::traceCache().get(
        workloads::workload("fp_chain"), 6000);
    auto yes = [](const rename::PhysRegTag &) { return true; };
    std::deque<rename::RenameResult> inFlight;
    bool same = true;
    std::uint32_t sharedSeen = 0;
    auto compare = [&] {
        for (RegClass cls : {RegClass::Int, RegClass::Float}) {
            for (LogRegIndex r = 0; r < isa::numLogRegs; ++r)
                same = same && bare->mapping(cls, r) == timed.mapping(cls, r);
            same = same && bare->freeRegs(cls) == timed.freeRegs(cls) &&
                   bare->totalRegs(cls) == timed.totalRegs(cls) &&
                   bare->sharedRegs(cls) == timed.sharedRegs(cls);
            for (std::uint8_t k = 1; k <= 3; ++k) {
                same = same && bare->sharedAtLeast(cls, k) ==
                                   timed.sharedAtLeast(cls, k);
                sharedSeen += bare->sharedAtLeast(cls, k);
            }
        }
        same = same && bare->maxVersions() == timed.maxVersions() &&
               bare->committedShadowValues() ==
                   timed.committedShadowValues() &&
               bare->historyPosition() == timed.historyPosition();
    };
    for (std::size_t i = 0; i < tr->size(); ++i) {
        const rename::RenameResult a = bare->rename((*tr)[i], yes);
        const rename::RenameResult b = timed.rename((*tr)[i], yes);
        same = same && a.success == b.success && a.destTag == b.destTag &&
               a.reused == b.reused && a.token == b.token;
        if (a.success)
            inFlight.push_back(a);
        if (!inFlight.empty() && (!a.success || inFlight.size() > 48)) {
            bare->commit(inFlight.front());
            timed.commit(inFlight.front());
            inFlight.pop_front();
        }
        if (i % 97 == 96 && inFlight.size() > 8) {
            const rename::HistoryToken token =
                inFlight[inFlight.size() - 6].token;
            const std::uint32_t recBare = bare->squashTo(token, yes);
            const std::uint32_t recTimed = timed.squashTo(token, yes);
            same = same && recBare == recTimed;
            inFlight.resize(inFlight.size() - 6);
        }
        compare();
    }
    expect(same, "TimedRenamer forwards every query for scheme '" +
                     schemeName + "'");
    if (schemeName == "reuse")
        expect(sharedSeen > 0, "reuse scheme shared registers during the "
                               "forwarding test");
}

/** A plan cut down to its first size, short streams, for quick runs. */
Plan
smallPlan(const std::string &name, std::uint64_t seed)
{
    Plan p = makePlan(name, seed);
    p.cap = p.sampled() ? 70'000 : 3'000;
    for (trace::SyntheticParams &sp : p.synth)
        sp.numInsts = 3'000;
    std::vector<RunSpec> keep;
    for (RunSpec &r : p.runs) {
        if (r.size == p.sizes.front()) {
            r.config.maxInsts = p.cap;
            keep.push_back(std::move(r));
        }
    }
    p.runs = std::move(keep);
    return p;
}

bool
identical(const std::vector<RunOutcome> &a, const std::vector<RunOutcome> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const RunOutcome &x = a[i], &y = b[i];
        if (x.sim.committedInsts != y.sim.committedInsts ||
            x.sim.cycles != y.sim.cycles ||
            x.sim.committedOps != y.sim.committedOps ||
            x.mispredicts != y.mispredicts ||
            x.sampled.windows != y.sampled.windows ||
            x.sampled.meanIpc != y.sampled.meanIpc)
            return false;
        for (int c = 0; c < obs::numCycleCauses; ++c) {
            if (x.stalls.counts[c] != y.stalls.counts[c])
                return false;
        }
    }
    return true;
}

int
selftestCommand()
{
    for (const std::string &s : rename::registeredRenameSchemes())
        forwardingTest(s);

    // Traced runs reproduce untraced runs bit for bit, every kernel and
    // scheme, in exact and sampled mode, and on synthetic streams.
    for (const std::string &name : workloadNames()) {
        const Plan p = smallPlan(name, defaultSeed);
        const Pass u = untracedPass(p);
        SpanLog log;
        const TracedPass t = tracedPass(p, 0, log);
        CheckLog checks;
        checkPass(p, u.runs, nullptr, "", "untraced", checks);
        expect(checks.failures.empty(),
               name + ": small-cap runs pass the output checks");
        expect(identical(u.runs, t.runs),
               name + ": traced run is bit-identical to the untraced run (" +
                   std::to_string(p.runs.size()) + " runs)");
    }

    // Seeds: same seed, same inputs and results; another seed, other
    // synthetic inputs.
    {
        const Plan a = smallPlan("synthetic_sweep", 1);
        const Plan a2 = smallPlan("synthetic_sweep", 1);
        const Plan b = smallPlan("synthetic_sweep", 2);
        std::vector<std::uint64_t> da, da2, db;
        setupRound(a, false, 0, nullptr, &da);
        setupRound(a2, false, 0, nullptr, &da2);
        setupRound(b, false, 0, nullptr, &db);
        expect(da == da2, "same seed gives the same synthetic inputs");
        bool allDiffer = da.size() == db.size();
        for (std::size_t i = 0; allDiffer && i < da.size(); ++i)
            allDiffer = da[i] != db[i];
        expect(allDiffer, "another seed changes every synthetic input");
        expect(identical(untracedPass(a).runs, untracedPass(a2).runs),
               "same seed gives identical simulated results");
        expect(!identical(untracedPass(a).runs, untracedPass(b).runs),
               "another seed gives other simulated results");
    }

    // The stored exact_fig11 reference passes, and a corrupted copy
    // turns exactly the corrupted runs into failures.
    {
        Plan p = makePlan("exact_fig11", defaultSeed);
        Reference ref = loadReference(referencePath(p.name), p);
        const std::size_t n = 2 * p.sizes.size();   // the first kernel
        p.runs.resize(n);
        ref.runs.resize(n);
        const Pass u = untracedPass(p);
        CheckLog good;
        checkPass(p, u.runs, &ref.runs, "stored reference", "pass0", good);
        expect(good.failures.empty(),
               "exact_fig11 matches the stored reference (" +
                   p.kernels.front()->name + ")");
        ref.runs[3].cycles += 1;
        ref.runs[10].committedInsts -= 1;
        CheckLog bad;
        checkPass(p, u.runs, &ref.runs, "stored reference", "pass0", bad);
        expect(bad.failedRuns == 2,
               "a corrupted reference fails exactly the corrupted runs");
    }

    // A reference whose key no longer matches the plan is a named error.
    {
        const Plan p = makePlan("exact_fig11", defaultSeed);
        std::ifstream in(referencePath(p.name));
        std::stringstream text;
        text << in.rdbuf();
        std::string doc = text.str();
        const std::string key = "\"source_hash\": \"";
        const std::size_t at = doc.find(key, doc.find(key) + 1);
        doc.replace(at + key.size(), 16, "0000000000000000");
        Reference ref;
        std::string error;
        const bool staleLoads = parseReference(doc, p, ref, error);
        expect(!staleLoads && error.find("is stale: run 1 source_hash") == 0,
               "a stale reference is a named error: " + error);
        const bool truncatedLoads =
            parseReference("{\"workload\": ", p, ref, error);
        expect(!truncatedLoads && error.find("is not valid JSON") == 0,
               "a truncated reference is a named error: " + error);
    }

    std::printf("%s: %d failure%s\n", failures ? "FAILED" : "PASSED",
                failures, failures == 1 ? "" : "s");
    return failures ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseOptions(argc, argv);
    refuseEnvironment();
    if (opt.command == "reference")
        return referenceCommand(opt);
    if (opt.command == "selftest")
        return selftestCommand();
    return runCommand(opt);
}
