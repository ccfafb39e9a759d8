/**
 * @file
 * The timed passes.  The untraced pass is the program as users run it:
 * kernel workloads through harness::SweepRunner on one lane (runOn and
 * the trace cache), synthetic streams through the rig abl_synthetic
 * builds.  The traced pass rebuilds every run from the library's public
 * pieces, puts the renamer behind TimedRenamer, and keeps one span per
 * run, per simulate call and per renamer call family.
 */

#include <memory>
#include <optional>
#include <utility>

#include "bpred/bpred.hh"
#include "core/o3core.hh"
#include "harness/sweep.hh"
#include "harness/tracecache.hh"
#include "mem/memsystem.hh"
#include "timed.hh"
#include "trace/recorded.hh"
#include "trace/synthetic.hh"

namespace rrbench {

using namespace rrs;

namespace {

RunOutcome
fromOutcome(const harness::Outcome &o, double wall)
{
    RunOutcome r;
    r.sim = o.sim;
    r.stalls = o.stalls;
    r.sampled = o.sampled;
    r.mispredicts = o.mispredicts;
    r.wallSeconds = wall;
    return r;
}

/** One run on a rig built piece by piece, and where its time went. */
struct RigRun
{
    RunOutcome out;
    RenamerCounts renamer;       //!< zero unless the renamer was timed
    double simulateSeconds = 0;  //!< core.run() or the sampling controller
    double runStart = 0;         //!< span starts, on the log's clock
    double simStart = 0;
};

/**
 * Run i of a plan on the rig harness::runOn builds (abl_synthetic's
 * runSynthetic() for synthetic streams): a ReplayStream over the cached
 * trace or a SyntheticStream, MemSystem, BranchPredictor, the scheme's
 * renamer and an O3Core seeded as the sweep seeds run i, driven by
 * core.run() or a SamplingController.  With `timeRenamer` the core sees
 * the renamer behind a TimedRenamer; `log` only supplies span starts.
 */
RigRun
rigRun(const Plan &plan, std::size_t i, bool timeRenamer, const SpanLog *log)
{
    RigRun rr;
    rr.runStart = log ? log->now() : 0.0;
    const Clock::time_point rt0 = Clock::now();
    const RunSpec &r = plan.runs[i];

    std::unique_ptr<trace::InstStream> stream;
    trace::ReplayStream *replay = nullptr;
    if (r.kernel) {
        auto rs = std::make_unique<trace::ReplayStream>(
            harness::traceCache().get(*r.kernel, r.config.maxInsts));
        replay = rs.get();
        stream = std::move(rs);
    } else {
        stream = std::make_unique<trace::SyntheticStream>(
            plan.synth[r.fraction]);
    }
    mem::MemSystem mem{r.config.mem};
    bpred::BranchPredictor bp{r.config.bpred};
    const rename::RenameScheme &scheme =
        rename::renameScheme(r.config.scheme);
    std::unique_ptr<rename::Renamer> inner =
        scheme.makeRenamer(r.config.rename);
    std::optional<TimedRenamer> timed;
    rename::Renamer &renamer =
        timeRenamer ? timed.emplace(*inner) : *inner;
    core::CoreParams cp = r.config.core;
    cp.seed = plan.runSeed(i);
    core::O3Core core(cp, renamer, mem, bp, *stream);

    RunOutcome &out = rr.out;
    rr.simStart = log ? log->now() : 0.0;
    const Clock::time_point st0 = Clock::now();
    if (r.config.sampling.enabled()) {
        harness::SamplingController sampler(r.config.sampling, core,
                                            *replay, mem, bp);
        out.sampled = sampler.run(out.sim);
    } else {
        out.sim = core.run();
    }
    rr.simulateSeconds = secondsSince(st0);
    if (replay)
        harness::traceCache().noteReplayed(replay->replayed());
    out.stalls = core.stallBreakdown();
    out.mispredicts = core.mispredictCount();
    out.wallSeconds = secondsSince(rt0);
    if (timed)
        rr.renamer = timed->counts();
    return rr;
}

} // namespace

RenamerCounts &
RenamerCounts::operator+=(const RenamerCounts &o)
{
    renameCalls += o.renameCalls;
    renameStalls += o.renameStalls;
    renamed += o.renamed;
    dests += o.dests;
    reused += o.reused;
    repairs += o.repairs;
    commitCalls += o.commitCalls;
    squashCalls += o.squashCalls;
    recoverCmds += o.recoverCmds;
    renameTicks += o.renameTicks;
    commitTicks += o.commitTicks;
    squashTicks += o.squashTicks;
    renameSeconds += o.renameSeconds;
    commitSeconds += o.commitSeconds;
    squashSeconds += o.squashSeconds;
    return *this;
}

Pass
untracedPass(const Plan &plan)
{
    Pass pass;
    pass.runs.reserve(plan.runs.size());
    if (plan.synthetic()) {
        const Clock::time_point t0 = Clock::now();
        for (std::size_t i = 0; i < plan.runs.size(); ++i)
            pass.runs.push_back(rigRun(plan, i, false, nullptr).out);
        pass.wallSeconds = secondsSince(t0);
        return pass;
    }

    // One lane whatever RRS_THREADS says: an explicit count wins.
    harness::SweepRunner runner(1);
    std::vector<harness::SweepItem> items;
    items.reserve(plan.runs.size());
    for (const RunSpec &r : plan.runs)
        items.push_back(harness::sweepItem(*r.kernel, r.config));
    const std::vector<harness::SweepResult> results = runner.run(items);
    for (const harness::SweepResult &res : results)
        pass.runs.push_back(fromOutcome(res.outcome, res.wallSeconds));
    pass.wallSeconds = runner.summary().wallSeconds;
    pass.captureMisses = runner.summary().traceMisses;
    return pass;
}

TracedPass
tracedPass(const Plan &plan, int passIndex, SpanLog &log)
{
    const std::size_t n = plan.runs.size();
    TracedPass pass;
    pass.runs.reserve(n);
    pass.renamer.reserve(n);
    pass.simulateSeconds.reserve(n);
    const std::string passName = "pass" + std::to_string(passIndex);
    std::vector<std::pair<double, double>> spanStarts;   // run, simulate
    spanStarts.reserve(n);

    const double passStart = log.now();
    const Clock::time_point t0 = Clock::now();
    const std::uint64_t tick0 = ticks();
    for (std::size_t i = 0; i < n; ++i) {
        RigRun rr = rigRun(plan, i, true, &log);
        pass.runs.push_back(rr.out);
        pass.renamer.push_back(rr.renamer);
        pass.simulateSeconds.push_back(rr.simulateSeconds);
        spanStarts.push_back({rr.runStart, rr.simStart});
    }
    pass.wallSeconds = secondsSince(t0);
    const double secondsPerTick =
        pass.wallSeconds / static_cast<double>(ticks() - tick0);

    for (std::size_t i = 0; i < n; ++i) {
        RenamerCounts &c = pass.renamer[i];
        c.renameSeconds = static_cast<double>(c.renameTicks) * secondsPerTick;
        c.commitSeconds = static_cast<double>(c.commitTicks) * secondsPerTick;
        c.squashSeconds = static_cast<double>(c.squashTicks) * secondsPerTick;
        const auto [runStart, simStart] = spanStarts[i];
        const RunSpec &r = plan.runs[i];
        const RunOutcome &out = pass.runs[i];
        const long long id = static_cast<long long>(i);
        const std::string what = plan.label(i);
        log.add({"run", passName, id, -1, what, runStart,
                 out.wallSeconds, 1});
        log.add({r.config.sampling.enabled() ? "sampling.run" : "core.run",
                 "run", id, -1, what, simStart, pass.simulateSeconds[i], 1});
        log.add({"rename.rename", "core.run", id, -1, what, simStart,
                 c.renameSeconds, c.renameCalls});
        log.add({"rename.commit", "core.run", id, -1, what, simStart,
                 c.commitSeconds, c.commitCalls});
        log.add({"rename.squash", "core.run", id, -1, what, simStart,
                 c.squashSeconds, c.squashCalls});
    }
    log.add({passName, "", -1, -1, plan.name, passStart, pass.wallSeconds,
             1});
    return pass;
}

} // namespace rrbench
