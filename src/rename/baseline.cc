#include "baseline.hh"

#include "common/logging.hh"

namespace rrs::rename {

BaselineRenamer::BaselineRenamer(const BaselineParams &params)
    : params(params)
{
    for (int c = 0; c < numRegClasses; ++c) {
        auto cls = static_cast<RegClass>(c);
        std::uint32_t total = totalRegs(cls);
        // With only numLogRegs registers every one is mapped at reset
        // and the first register write stalls forever.
        rrs_assert(total > isa::numLogRegs,
                   "need more physical than logical registers");
        ClassState &st = classes[c];
        st.map.resize(isa::numLogRegs);
        // Identity initial mapping; the rest go to the free list.
        for (LogRegIndex r = 0; r < isa::numLogRegs; ++r)
            st.map[r] = r;
        for (std::uint32_t p = total; p > isa::numLogRegs; --p)
            st.freeList.push_back(static_cast<PhysRegIndex>(p - 1));
    }
}

std::uint32_t
BaselineRenamer::totalRegs(RegClass cls) const
{
    return cls == RegClass::Int ? params.intRegs : params.fpRegs;
}

std::uint32_t
BaselineRenamer::freeRegs(RegClass cls) const
{
    return static_cast<std::uint32_t>(state(cls).freeList.size());
}

PhysRegTag
BaselineRenamer::mapping(RegClass cls, LogRegIndex reg) const
{
    return PhysRegTag{cls, state(cls).map[reg], 0};
}

RenameResult
BaselineRenamer::rename(
    const trace::DynInst &di,
    const std::function<bool(const PhysRegTag &)> & /* producerExecuted */)
{
    RenameResult res;
    res.token = nextToken;

    const bool writes = writesReg(di);
    if (writes) {
        ClassState &st = state(di.si.dest.cls);
        if (st.freeList.empty()) {
            res.success = false;
            res.endToken = nextToken;
            return res;
        }
    }

    // Rename sources through the map table.
    for (int s = 0; s < di.si.numSrcs(); ++s) {
        if (!readsReg(di, s)) {
            res.srcTags[static_cast<std::size_t>(s)] = PhysRegTag{};
        } else {
            const isa::RegId &src = di.si.srcs[static_cast<std::size_t>(s)];
            res.srcTags[static_cast<std::size_t>(s)] =
                PhysRegTag{src.cls, state(src.cls).map[src.idx], 0};
        }
    }
    res.numSrcTags = di.si.numSrcs();

    if (writes) {
        ClassState &st = state(di.si.dest.cls);
        PhysRegIndex fresh = st.freeList.back();
        st.freeList.pop_back();
        ++allocations;

        PhysRegIndex old = st.map[di.si.dest.idx];
        st.map[di.si.dest.idx] = fresh;
        history.push_back(HistoryEntry{di.si.dest.cls, di.si.dest.idx,
                                       old, fresh, old});
        ++nextToken;
        if (history.size() > historyPeakSinceShrink)
            historyPeakSinceShrink = history.size();
        if (history.size() > historyPeakCount)
            historyPeakCount = history.size();

        res.hasDest = true;
        res.destTag = PhysRegTag{di.si.dest.cls, fresh, 0};
    }

    res.success = true;
    res.endToken = nextToken;
    return res;
}

void
BaselineRenamer::commit(const RenameResult &result)
{
    // Drop (and retire) this instruction's history entries; commits are
    // in order, so they sit at the front of the buffer.
    rrs_assert(result.endToken >= historyBase,
               "commit of already-collected history");
    while (historyBase < result.endToken) {
        rrs_assert(!history.empty(), "history underflow at commit");
        const HistoryEntry &e = history.front();
        // The previous mapping of the redefined logical register is now
        // unreachable: release it (release-on-commit).
        state(e.cls).freeList.push_back(e.releaseAtCommit);
        history.pop_front();
        ++historyBase;
    }
    // Bound committed storage after a drain, as in ReuseRenamer.
    if (history.empty() &&
        historyPeakSinceShrink > historyShrinkThreshold) {
        history.shrink_to_fit();
        historyPeakSinceShrink = 0;
    }
}

std::uint32_t
BaselineRenamer::squashTo(
    HistoryToken token,
    const std::function<bool(const PhysRegTag &)> & /* produced */)
{
    rrs_assert(token >= historyBase, "squash into committed history");
    while (nextToken > token) {
        rrs_assert(!history.empty(), "history underflow at squash");
        const HistoryEntry &e = history.back();
        state(e.cls).map[e.logReg] = e.oldPhys;
        state(e.cls).freeList.push_back(e.newPhys);
        history.pop_back();
        --nextToken;
    }
    return 0;   // the baseline never needs shadow recovery
}

} // namespace rrs::rename
