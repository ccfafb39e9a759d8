#include "bpred.hh"

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace rrs::bpred {

using isa::BranchKind;

BTB::BTB(std::uint32_t entries, std::uint32_t assoc)
    : sets(entries / assoc), assoc(assoc), entries(entries)
{
    rrs_assert(isPowerOf2(sets), "BTB sets must be a power of two");
}

std::uint32_t
BTB::setIndex(Addr pc) const
{
    return static_cast<std::uint32_t>((pc >> 2) & (sets - 1));
}

Addr
BTB::lookup(Addr pc) const
{
    const std::uint32_t base = setIndex(pc) * assoc;
    for (std::uint32_t w = 0; w < assoc; ++w) {
        const Entry &e = entries[base + w];
        // Const lookup does not touch LRU; update() refreshes it.
        if (e.valid && e.tag == pc)
            return e.target;
    }
    return invalidAddr;
}

void
BTB::update(Addr pc, Addr target)
{
    const std::uint32_t base = setIndex(pc) * assoc;
    std::uint32_t victim = 0;
    std::uint64_t oldest = ~0ULL;
    for (std::uint32_t w = 0; w < assoc; ++w) {
        Entry &e = entries[base + w];
        if (e.valid && e.tag == pc) {
            e.target = target;
            e.lru = ++lruTick;
            return;
        }
        if (!e.valid) {
            victim = w;
            oldest = 0;
        } else if (e.lru < oldest) {
            victim = w;
            oldest = e.lru;
        }
    }
    Entry &e = entries[base + victim];
    e.valid = true;
    e.tag = pc;
    e.target = target;
    e.lru = ++lruTick;
}

ReturnAddressStack::ReturnAddressStack(std::uint32_t entries)
    : stack(entries, 0)
{
}

void
ReturnAddressStack::push(Addr returnPc)
{
    topPtr = (topPtr + 1) % stack.size();
    stack[topPtr] = returnPc;
}

Addr
ReturnAddressStack::pop()
{
    Addr v = stack[topPtr];
    topPtr = (topPtr + static_cast<std::uint32_t>(stack.size()) - 1) %
             stack.size();
    return v;
}

Addr
ReturnAddressStack::top() const
{
    return stack[topPtr];
}

BranchPredictor::BranchPredictor(const BPredParams &params)
    : params(params),
      counters(params.tableEntries, 1),  // weakly not-taken
      btb(params.btbEntries, params.btbAssoc), ras(params.rasEntries)
{
    rrs_assert(isPowerOf2(params.tableEntries),
               "predictor table must be a power of two");
}

std::uint32_t
BranchPredictor::tableIndex(Addr pc) const
{
    std::uint64_t idx = pc >> 2;
    if (params.kind == DirPredictor::GShare) {
        std::uint64_t hist =
            globalHistory & ((1ULL << params.historyBits) - 1);
        idx ^= hist;
    }
    return static_cast<std::uint32_t>(idx & (params.tableEntries - 1));
}

Prediction
BranchPredictor::predict(Addr pc, BranchKind kind)
{
    Prediction p;
    p.historySnapshot = globalHistory;
    p.rasSnapshot = ras.tos();

    switch (kind) {
      case BranchKind::Cond: {
        ++condLookups;
        std::uint8_t ctr = counters[tableIndex(pc)];
        p.taken = ctr >= 2;
        // Speculatively shift the prediction into the history.
        globalHistory = (globalHistory << 1) | (p.taken ? 1 : 0);
        if (p.taken) {
            p.target = btb.lookup(pc);
            p.btbHit = p.target != invalidAddr;
            if (!p.btbHit) {
                // Predicted taken but no target known: a real front end
                // would redirect once decode computes the target; we
                // treat it as a fall-through prediction, which the core
                // then resolves as a misprediction if taken.
                p.taken = false;
                p.target = invalidAddr;
            }
        }
        break;
      }
      case BranchKind::Uncond:
      case BranchKind::Call: {
        p.taken = true;
        p.target = btb.lookup(pc);
        p.btbHit = p.target != invalidAddr;
        if (kind == BranchKind::Call)
            ras.push(pc + isa::instBytes);
        break;
      }
      case BranchKind::Return: {
        p.taken = true;
        p.target = ras.pop();
        p.btbHit = true;
        if (p.target == 0) {
            p.target = invalidAddr;
            p.btbHit = false;
        }
        break;
      }
      case BranchKind::Indirect: {
        p.taken = true;
        p.target = btb.lookup(pc);
        p.btbHit = p.target != invalidAddr;
        break;
      }
      case BranchKind::None:
        rrs_panic("predict() on a non-control instruction");
    }
    return p;
}

void
BranchPredictor::update(Addr pc, BranchKind kind, bool taken, Addr target,
                        std::uint64_t historyAtPredict)
{
    if (kind == BranchKind::Cond) {
        // Train the counter the prediction actually read: index with
        // the history as it was at prediction time.
        std::uint64_t saved = globalHistory;
        globalHistory = historyAtPredict;
        std::uint8_t &ctr = counters[tableIndex(pc)];
        globalHistory = saved;
        if (taken && ctr < 3)
            ++ctr;
        else if (!taken && ctr > 0)
            --ctr;
    }
    if (taken && kind != BranchKind::Return)
        btb.update(pc, target);
}

void
BranchPredictor::squash(const Prediction &snapshot)
{
    globalHistory = snapshot.historySnapshot;
    ras.restore(snapshot.rasSnapshot);
}

void
BranchPredictor::correctHistory(const Prediction &snapshot,
                                bool actualTaken)
{
    globalHistory = (snapshot.historySnapshot << 1) | (actualTaken ? 1 : 0);
    ras.restore(snapshot.rasSnapshot);
}

void
BranchPredictor::recordResolution(BranchKind kind, bool correct)
{
    if (kind == BranchKind::Cond && correct)
        ++condCorrect;
}

double
BranchPredictor::condAccuracy() const
{
    return condLookups > 0 ? static_cast<double>(condCorrect) /
                                 static_cast<double>(condLookups)
                           : 0.0;
}

} // namespace rrs::bpred
