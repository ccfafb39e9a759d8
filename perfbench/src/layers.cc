/**
 * @file
 * Standalone layer replays.  MemSystem and BranchPredictor are not
 * virtual, so they cannot be timed from inside a run; instead each
 * workload's records are replayed through their public calls the way
 * SamplingController's functional warming drives them: predict (with
 * history repair) + update per control record, fetchAccess per new
 * line, dataAccess per load or store.
 */

#include <memory>

#include "bench.hh"
#include "bpred/bpred.hh"
#include "harness/tracecache.hh"
#include "mem/memsystem.hh"
#include "trace/recorded.hh"
#include "trace/synthetic.hh"

namespace rrbench {

using namespace rrs;

namespace {

/** Every record stream of a plan, packed. */
std::vector<trace::TracePtr>
planTraces(const Plan &plan)
{
    std::vector<trace::TracePtr> out;
    for (const workloads::Workload *w : plan.kernels)
        out.push_back(harness::traceCache().get(*w, plan.cap));
    for (const trace::SyntheticParams &sp : plan.synth) {
        trace::SyntheticStream stream(sp);
        std::vector<trace::DynInst> insts;
        while (std::optional<trace::DynInst> di = stream.next())
            insts.push_back(*di);
        auto tr = std::make_shared<trace::RecordedTrace>(
            "synthetic", sp.numInsts, 0, std::move(insts));
        tr->packed();
        out.push_back(tr);
    }
    return out;
}

double
missRatio(std::uint64_t misses, std::uint64_t accesses)
{
    return accesses ? static_cast<double>(misses) /
                          static_cast<double>(accesses)
                    : 0.0;
}

enum class MemMode { Both, FetchOnly, DataOnly };

/** One warm-style pass over a trace through a fresh MemSystem. */
void
memPass(const trace::PackedTrace &pk, mem::MemSystem &mem, MemMode mode,
        std::uint64_t &fetches, std::uint64_t &data)
{
    Tick t = 0;
    Addr lastLine = invalidAddr;
    const bool doFetch = mode != MemMode::DataOnly;
    const bool doData = mode != MemMode::FetchOnly;
    for (std::size_t i = 0; i < pk.size(); ++i) {
        ++t;
        const isa::PackedMeta &m = pk.meta(i);
        const Addr pc = pk.pc(i);
        if (doFetch && pc / 64 != lastLine) {
            mem.fetchAccess(pc, t);
            lastLine = pc / 64;
            ++fetches;
        }
        if (doData && (m.isLoad() || m.isStore())) {
            mem.dataAccess(pc, pk.effAddr(i), m.isStore(), t);
            ++data;
        }
    }
}

} // namespace

LayerReplay
replayLayers(const Plan &plan)
{
    LayerReplay out;
    const std::vector<trace::TracePtr> traces = planTraces(plan);
    const mem::MemSystemParams memParams;
    const bpred::BPredParams bpParams;

    std::uint64_t l1i[2] = {}, l1d[2] = {}, l2[2] = {}, tlbMisses = 0;
    for (const trace::TracePtr &tr : traces) {
        const trace::PackedTrace &pk = tr->packed();
        out.records += pk.size();

        // Both access kinds interleaved, in the order a run makes them:
        // the miss ratios come from this pass.
        {
            mem::MemSystem mem{memParams};
            std::uint64_t f = 0, d = 0;
            memPass(pk, mem, MemMode::Both, f, d);
            l1i[0] += mem.l1i().missCount();
            l1i[1] += mem.l1i().missCount() + mem.l1i().hitCount();
            l1d[0] += mem.l1d().missCount();
            l1d[1] += mem.l1d().missCount() + mem.l1d().hitCount();
            l2[0] += mem.l2().missCount();
            l2[1] += mem.l2().missCount() + mem.l2().hitCount();
            tlbMisses += mem.tlb().missCount();
        }
        // Each access kind alone, timed.
        {
            mem::MemSystem mem{memParams};
            std::uint64_t d = 0;
            const Clock::time_point t0 = Clock::now();
            memPass(pk, mem, MemMode::FetchOnly, out.fetches, d);
            out.fetchSeconds += secondsSince(t0);
        }
        {
            mem::MemSystem mem{memParams};
            std::uint64_t f = 0;
            const Clock::time_point t0 = Clock::now();
            memPass(pk, mem, MemMode::DataOnly, f, out.dataAccesses);
            out.dataSeconds += secondsSince(t0);
        }

        bpred::BranchPredictor bp{bpParams};
        const Clock::time_point t0 = Clock::now();
        for (std::size_t i = 0; i < pk.size(); ++i) {
            const isa::PackedMeta &m = pk.meta(i);
            if (!m.isControl())
                continue;
            const Addr pc = pk.pc(i);
            const bpred::Prediction p = bp.predict(pc, m.branch);
            const bool taken = pk.taken(i);
            ++out.branches;
            if (m.branch == isa::BranchKind::Cond) {
                ++out.condBranches;
                if (p.taken == taken)
                    ++out.condCorrect;
                else
                    bp.correctHistory(p, taken);
            } else if (m.branch != isa::BranchKind::Return) {
                ++out.btbLookups;
                out.btbMisses += !p.btbHit;
            }
            bp.update(pc, m.branch, taken,
                      taken ? pk.nextPc(i) : invalidAddr,
                      p.historySnapshot);
        }
        out.bpredSeconds += secondsSince(t0);
    }
    out.l1iMissRatio = missRatio(l1i[0], l1i[1]);
    out.l1dMissRatio = missRatio(l1d[0], l1d[1]);
    out.l2MissRatio = missRatio(l2[0], l2[1]);
    out.tlbMissRatio = missRatio(tlbMisses, out.dataAccesses);
    return out;
}

double
synthNsPerRecord(const Plan &plan)
{
    std::uint64_t records = 0;
    double seconds = 0;
    for (const trace::SyntheticParams &sp : plan.synth) {
        trace::SyntheticStream stream(sp);
        const Clock::time_point t0 = Clock::now();
        while (stream.next())
            ++records;
        seconds += secondsSince(t0);
    }
    return records ? seconds * 1e9 / static_cast<double>(records) : 0.0;
}

} // namespace rrbench
