#include "sampling.hh"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "stats/stats.hh"

namespace rrs::harness {

const char *
samplingScheduleError(const SamplingParams &p)
{
    if (!p.enabled())
        return "needs positive 'detailed' and 'period'";
    if (p.period < p.warm + p.detailed)
        return "'period' must cover warm + detailed";
    return nullptr;
}

SamplingController::SamplingController(const SamplingParams &params,
                                       core::O3Core &core,
                                       trace::ReplayStream &stream,
                                       mem::MemSystem &mem,
                                       bpred::BranchPredictor &bp)
    : params(params), core(core), stream(stream), mem(mem), bp(bp)
{
    if (const char *why = samplingScheduleError(params))
        rrs_panic("sampling controller: %s", why);
}

void
SamplingController::warmSpan(std::size_t from, std::size_t to)
{
    // Emulator-equivalent state advance straight off the packed
    // trace: the trace already holds the architectural outcome of
    // every instruction (taken direction, target, effective address),
    // so warming is predict/train plus cache touches — no renaming,
    // no queues, no per-cycle loop.
    const trace::PackedTrace &pk = stream.trace().packed();
    Tick t = core.nowTick();
    Addr lastLine = invalidAddr;
    for (std::size_t i = from; i < to; ++i) {
        // One tick per record keeps cache LRU/MSHR timestamps
        // monotonic through the span instead of piling every access
        // onto one instant.
        ++t;
        const isa::PackedMeta &m = pk.meta(i);
        const Addr pc = pk.pc(i);
        const Addr line = pc / 64;
        if (line != lastLine) {
            mem.fetchAccess(pc, t);
            lastLine = line;
        }
        if (m.isControl()) {
            // Same speculative-history discipline as the pipeline:
            // predict (shifts history, moves the RAS), repair the
            // direction the trace says was mispredicted, train at
            // "commit".  recordResolution is skipped — warm
            // predictions are training traffic, not measurements.
            const bpred::Prediction p = bp.predict(pc, m.branch);
            const bool taken = pk.taken(i);
            if (m.branch == isa::BranchKind::Cond && p.taken != taken)
                bp.correctHistory(p, taken);
            bp.update(pc, m.branch, taken,
                      taken ? pk.nextPc(i) : invalidAddr,
                      p.historySnapshot);
        }
        if (m.isLoad())
            mem.dataAccess(pc, pk.effAddr(i), false, t);
        else if (m.isStore())
            mem.dataAccess(pc, pk.effAddr(i), true, t);
    }
    core.advanceClock(t);
}

SampledSummary
SamplingController::run(core::SimResult &aggregate)
{
    const std::size_t n = stream.trace().size();
    SampledSummary out;
    out.enabled = true;
    aggregate = core::SimResult{};

    // Per-window IPC accumulators.  The median is taken over the
    // window IPCs rounded to units of 1e-4.
    double sum = 0, sumSq = 0;
    std::uint64_t measuredInsts = 0, measuredCycles = 0;
    std::vector<std::uint64_t> windowIpcX1e4;

    const std::uint64_t fill =
        std::min<std::uint64_t>(params.fillInsts, params.detailed);
    const std::uint64_t measured = params.detailed - fill;

    // A trace that ends inside the first warm span would run no window
    // and report IPC 0: warm only what leaves one detailed window.
    const std::uint64_t warm =
        n > params.warm ? params.warm
                        : (n > params.detailed ? n - params.detailed : 0);

    std::size_t pos = 0;
    while (pos < n) {
        const std::size_t periodStart = pos;

        // 1. Functional warm.
        const std::size_t warmEnd = std::min<std::size_t>(pos + warm, n);
        if (warmEnd > pos) {
            warmSpan(pos, warmEnd);
            out.warmInsts += warmEnd - pos;
            pos = warmEnd;
        }
        if (pos >= n)
            break;
        stream.seek(pos);

        // 2. Detailed window: unmeasured pipeline-fill prefix, then
        // the measured body, one continuous stretch of pipeline time.
        if (fill > 0) {
            const core::SimResult r = core.runWindow(fill);
            pos += r.committedInsts;
            out.detailedInsts += r.committedInsts;
            out.detailedCycles += r.cycles;
            aggregate.committedInsts += r.committedInsts;
            aggregate.committedOps += r.committedOps;
            aggregate.cycles += r.cycles;
        }
        if (measured > 0 && pos < n) {
            const core::SimResult r = core.runWindow(measured);
            pos += r.committedInsts;
            out.detailedInsts += r.committedInsts;
            out.detailedCycles += r.cycles;
            aggregate.committedInsts += r.committedInsts;
            aggregate.committedOps += r.committedOps;
            aggregate.cycles += r.cycles;
            if (r.committedInsts > 0 && r.cycles > 0) {
                const double ipc =
                    static_cast<double>(r.committedInsts) /
                    static_cast<double>(r.cycles);
                sum += ipc;
                sumSq += ipc * ipc;
                measuredInsts += r.committedInsts;
                measuredCycles += r.cycles;
                ++out.windows;
                windowIpcX1e4.push_back(static_cast<std::uint64_t>(
                    std::llround(ipc * 1e4)));
            }
        }

        // 3. Reconcile: the fetch lookahead left the cursor (and some
        // in-flight instructions) ahead of the commit point; drop the
        // in-flight work and re-seek to exactly what committed.
        core.discardInFlight();
        stream.seek(pos);

        // 4. Fast-forward the rest of the period with functional
        // warming (SMARTS always-on warming): caches and predictor
        // keep tracking the program through the gap, only the pipeline
        // is skipped.  A cold jump here ages the cache out from under
        // the next window and biases every window's IPC down by
        // whatever the working set advanced during the gap.
        const std::size_t periodEnd =
            std::min<std::size_t>(periodStart + params.period, n);
        if (pos < periodEnd) {
            warmSpan(pos, periodEnd);
            out.skippedInsts += periodEnd - pos;
            pos = periodEnd;
            stream.seek(pos);
        }
    }

    if (out.windows > 0) {
        const double count = static_cast<double>(out.windows);
        // Instruction-weighted mean — the same insts/cycles semantics
        // as an exact run's IPC.  The unweighted mean of per-window
        // IPCs would sit above it (Jensen: slow windows eat
        // disproportionate cycles) and over-weight a short tail
        // window; the dispersion statistics stay per-window.
        out.meanIpc = measuredCycles > 0
                          ? static_cast<double>(measuredInsts) /
                                static_cast<double>(measuredCycles)
                          : sum / count;
        if (out.windows > 1) {
            const double var =
                (sumSq - sum * sum / count) / (count - 1.0);
            out.stddevIpc = var > 0 ? std::sqrt(var) : 0.0;
            out.ci95Ipc = 1.96 * out.stddevIpc / std::sqrt(count);
        }
        out.medianIpc =
            stats::percentile(std::move(windowIpcX1e4), 50) / 1e4;
    } else {
        // Trace shorter than one measured window: fall back to the
        // aggregate over whatever detail ran.
        out.meanIpc = aggregate.ipc();
        out.medianIpc = out.meanIpc;
    }
    const double ciFloor = out.meanIpc * params.ciFloorPct / 100.0;
    if (out.ci95Ipc < ciFloor)
        out.ci95Ipc = ciFloor;
    return out;
}

} // namespace rrs::harness
