#include "reuse.hh"

#include <algorithm>

#include "common/logging.hh"

namespace rrs::rename {

ReuseRenamer::ReuseRenamer(const ReuseRenamerParams &params)
    : params(params), typePred(params.predictor)
{
    rrs_assert(params.counterBits >= 1 && params.counterBits <= 4,
               "counter width must be 1..4 bits");
    for (int c = 0; c < numRegClasses; ++c) {
        auto cls = static_cast<RegClass>(c);
        const BankConfig &banks = bankConfig(cls);
        ClassState &st = classes[c];
        st.total = banks[0] + banks[1] + banks[2] + banks[3];
        rrs_assert(st.total >= isa::numLogRegs + 1,
                   "register file too small for the architected state");

        st.prt.resize(st.total);
        std::uint32_t p = 0;
        for (int b = 0; b < 4; ++b) {
            for (std::uint32_t i = 0; i < banks[static_cast<size_t>(b)];
                 ++i, ++p) {
                st.prt[p].bank = static_cast<std::uint8_t>(b);
            }
        }

        st.specMap.resize(isa::numLogRegs);
        st.retMap.resize(isa::numLogRegs);
        for (LogRegIndex r = 0; r < isa::numLogRegs; ++r) {
            PhysRegTag tag{cls, r, 0};
            st.specMap[r] = MapEntry{tag, false};
            st.retMap[r] = tag;
            st.prt[r].allocated = true;
            st.prt[r].specRefs = 1;
            st.prt[r].retRefs = 1;
        }
        // Everything above the architected state is free, grouped by
        // bank; pop from the back so low indices go out first.
        for (std::uint32_t q = st.total; q > isa::numLogRegs; --q) {
            auto phys = static_cast<PhysRegIndex>(q - 1);
            st.freeLists[st.prt[phys].bank].push_back(phys);
        }
    }
}

std::uint32_t
ReuseRenamer::totalRegs(RegClass cls) const
{
    return state(cls).total;
}

std::uint32_t
ReuseRenamer::freeRegs(RegClass cls) const
{
    const ClassState &st = state(cls);
    std::uint32_t n = 0;
    for (const auto &fl : st.freeLists)
        n += static_cast<std::uint32_t>(fl.size());
    return n;
}

std::uint32_t
ReuseRenamer::bankInUse(RegClass cls, int bank) const
{
    const ClassState &st = state(cls);
    const BankConfig &banks = bankConfig(cls);
    return banks[static_cast<size_t>(bank)] -
           static_cast<std::uint32_t>(
               st.freeLists[static_cast<size_t>(bank)].size());
}

std::uint32_t
ReuseRenamer::sharedAtLeast(RegClass cls, std::uint8_t k) const
{
    const ClassState &st = state(cls);
    std::uint32_t n = 0;
    for (const auto &e : st.prt) {
        if (e.allocated && e.counter >= k)
            ++n;
    }
    return n;
}

PhysRegTag
ReuseRenamer::mapping(RegClass cls, LogRegIndex reg) const
{
    return state(cls).specMap[reg].tag;
}

std::uint32_t
ReuseRenamer::committedShadowValues() const
{
    std::uint32_t n = 0;
    for (int c = 0; c < numRegClasses; ++c) {
        const ClassState &st = classes[c];
        for (LogRegIndex r = 0; r < isa::numLogRegs; ++r) {
            const PhysRegTag &tag = st.retMap[r];
            if (st.prt[tag.reg].counter > tag.version)
                ++n;
        }
    }
    return n;
}

PhysRegIndex
ReuseRenamer::allocFromBank(RegClass cls, std::uint8_t wantBank)
{
    ClassState &st = state(cls);
    // Closest-first search in shadow-capacity order; ties resolved
    // towards cheaper banks (fewer shadow cells).
    for (int dist = 0; dist < 4; ++dist) {
        for (int sign : {-1, +1}) {
            int b = static_cast<int>(wantBank) + sign * dist;
            if (b < 0 || b > 3)
                continue;
            auto &fl = st.freeLists[static_cast<size_t>(b)];
            if (!fl.empty()) {
                PhysRegIndex phys = fl.back();
                fl.pop_back();
                return phys;
            }
            if (dist == 0)
                break;   // +0 and -0 are the same bank
        }
    }
    // Exhausted: hand the caller an invalid index instead of dying.
    // rename() unwinds its partial work and reports a structural
    // stall, which the core charges to renameStallNoReg.
    return invalidRegIndex;
}

void
ReuseRenamer::pushHistory(const HistoryEntry &h)
{
    history.push_back(h);
    ++nextToken;
    if (history.size() > historyPeakSinceShrink)
        historyPeakSinceShrink = history.size();
    if (history.size() > historyPeakCount)
        historyPeakCount = history.size();
}

void
ReuseRenamer::maybeRelease(RegClass cls, PhysRegIndex phys, bool fromSquash)
{
    ClassState &st = state(cls);
    PrtEntry &e = st.prt[phys];
    if (!e.allocated || e.specRefs > 0 || e.retRefs > 0)
        return;

    if (!fromSquash) {
        // Figure 12 classification and predictor training.
        if (e.bank > 0) {
            if (e.counter > 0 && !e.multiUse)
                ++predReuseCorrect;
            else
                ++predReuseWrong;
        } else {
            if (e.totalUses == 1)
                ++predNoReuseWrong;
            else
                ++predNoReuseCorrect;
        }
        if (e.predIndex != noPred) {
            bool missed = e.counter == 0 && e.totalUses == 1 &&
                          !e.reuseImpossible;
            typePred.trainOnRelease(e.predIndex, e.bank, e.counter,
                                    e.multiUse, missed);
        }
    }

    e.readBit = false;
    e.counter = 0;
    e.usesCurVersion = 0;
    e.multiUse = false;
    e.reuseImpossible = false;
    e.totalUses = 0;
    e.predIndex = noPred;
    e.allocated = false;
    st.freeLists[e.bank].push_back(phys);
}

void
ReuseRenamer::dropSpecRef(RegClass cls, PhysRegIndex phys, bool fromSquash)
{
    PrtEntry &e = state(cls).prt[phys];
    rrs_assert(e.specRefs > 0, "spec refcount underflow");
    --e.specRefs;
    // A rename-time unmapping must NOT free the register even if both
    // counts are zero: older in-flight consumers may still hold its
    // versioned tags.  The register is freed either when the squash
    // path undoes its allocation (no consumers can survive a squash of
    // the allocator) or when retirement references drain at commit
    // (in-order commit guarantees all consumers are done) — the latter
    // is exactly the conservative release-on-commit rule for unshared
    // registers.
    if (fromSquash)
        maybeRelease(cls, phys, true);
}

void
ReuseRenamer::dropRetRef(RegClass cls, PhysRegIndex phys)
{
    PrtEntry &e = state(cls).prt[phys];
    rrs_assert(e.retRefs > 0, "retirement refcount underflow");
    --e.retRefs;
    maybeRelease(cls, phys, false);
}

void
ReuseRenamer::specMapWrite(RegClass cls, LogRegIndex logReg,
                           MapEntry entry, bool fromSquash)
{
    ClassState &st = state(cls);
    MapEntry old = st.specMap[logReg];
    if (!fromSquash) {
        HistoryEntry h;
        h.kind = HistKind::MapWrite;
        h.cls = cls;
        h.logReg = logReg;
        h.prevEntry = old;
        pushHistory(h);
    }
    st.specMap[logReg] = entry;
    ++st.prt[entry.tag.reg].specRefs;
    dropSpecRef(cls, old.tag.reg, fromSquash);
}

RenameResult
ReuseRenamer::rename(
    const trace::DynInst &di,
    const std::function<bool(const PhysRegTag &)> &producerExecuted)
{
    RenameResult res;
    res.token = nextToken;
    res.endToken = nextToken;

    const bool writes = writesReg(di);
    const isa::RegId destReg = di.si.dest;

    // ---- Phase 1: read-only feasibility and decision making ----
    struct SrcInfo
    {
        isa::RegId reg;
        MapEntry cur;
        bool stale = false;
        bool wasFirstConsumer = false;
        std::array<int, 3> slots{};   //!< operand slots using this reg
        int numSlots = 0;
    };
    std::array<SrcInfo, 3> srcs{};
    int numSrcs = 0;

    for (int s = 0; s < di.si.numSrcs(); ++s) {
        if (!readsReg(di, s))
            continue;
        const isa::RegId reg = di.si.srcs[static_cast<std::size_t>(s)];
        bool merged = false;
        for (int t = 0; t < numSrcs; ++t) {
            if (srcs[static_cast<size_t>(t)].reg == reg) {
                auto &info = srcs[static_cast<size_t>(t)];
                info.slots[static_cast<size_t>(info.numSlots++)] = s;
                merged = true;
                break;
            }
        }
        if (merged)
            continue;
        SrcInfo &info = srcs[static_cast<size_t>(numSrcs++)];
        info.reg = reg;
        info.cur = state(reg.cls).specMap[reg.idx];
        info.stale = info.cur.stale;
        info.slots[0] = s;
        info.numSlots = 1;
    }

    // Allocation demand per class: one per stale source (repair) plus
    // possibly one for the destination.
    std::uint32_t needAlloc[numRegClasses] = {0, 0};
    for (int t = 0; t < numSrcs; ++t) {
        if (srcs[static_cast<size_t>(t)].stale)
            ++needAlloc[static_cast<int>(
                srcs[static_cast<size_t>(t)].reg.cls)];
    }

    // Reuse decision: prefer the guaranteed (redefining) source.
    int reuseSrc = -1;
    int exhaustedSrc = -1;
    if (writes && params.reuseEnabled) {
        const std::uint8_t maxCtr =
            static_cast<std::uint8_t>((1u << params.counterBits) - 1);
        auto consider = [&](int t) {
            const SrcInfo &info = srcs[static_cast<size_t>(t)];
            if (info.stale || info.reg.cls != destReg.cls)
                return;
            const PrtEntry &e =
                state(info.reg.cls).prt[info.cur.tag.reg];
            if (e.readBit)
                return;   // not the first consumer
            const bool is_redef = info.reg == destReg;
            const bool allowed =
                is_redef ||
                (params.reuseNonRedef && e.predIndex != noPred &&
                 typePred.value(e.predIndex) >=
                     params.nonRedefConfidence);
            if (!allowed)
                return;
            if (e.counter >= maxCtr)
                return;   // version counter saturated
            if (e.counter >= e.bank) {
                // Single-use and reusable, but no shadow cell left.
                if (exhaustedSrc < 0)
                    exhaustedSrc = t;
                return;
            }
            if (reuseSrc < 0)
                reuseSrc = t;
        };
        // Pass 1: redefining sources; pass 2: the rest.
        for (int t = 0; t < numSrcs; ++t) {
            if (srcs[static_cast<size_t>(t)].reg == destReg)
                consider(t);
        }
        if (reuseSrc < 0) {
            for (int t = 0; t < numSrcs; ++t) {
                if (!(srcs[static_cast<size_t>(t)].reg == destReg))
                    consider(t);
            }
        }
    }
    if (writes && reuseSrc < 0)
        ++needAlloc[static_cast<int>(destReg.cls)];

    for (int c = 0; c < numRegClasses; ++c) {
        if (needAlloc[c] > freeRegs(static_cast<RegClass>(c))) {
            res.success = false;
            return res;
        }
    }

    // ---- Phase 2: mutate state ----

    // Repairs of stale sources (single-use mispredictions, Fig. 8).
    for (int t = 0; t < numSrcs; ++t) {
        SrcInfo &info = srcs[static_cast<size_t>(t)];
        if (!info.stale)
            continue;
        RegClass cls = info.reg.cls;
        ClassState &st = state(cls);
        PrtEntry &shared = st.prt[info.cur.tag.reg];

        // The overwriting producer holds the current version.
        PhysRegTag current{cls, info.cur.tag.reg, shared.counter};
        bool executed =
            producerExecuted ? producerExecuted(current) : true;
        auto uops = static_cast<std::uint8_t>(executed ? 3 : 1);

        // Detection marks the shared register multi-use and resets the
        // mispredicting predictor entry.  The multi-use flag is
        // speculative state: record it so a squash of this instruction
        // restores it exactly (the predictor reset is deliberately not
        // undone — like branch-predictor state, training on squashed
        // work is harmless noise).
        HistoryEntry mark;
        mark.kind = HistKind::RepairMark;
        mark.cls = cls;
        mark.phys = info.cur.tag.reg;
        mark.prevMultiUse = shared.multiUse;
        pushHistory(mark);
        shared.multiUse = true;
        if (shared.predIndex != noPred) {
            typePred.trainOnRelease(shared.predIndex, shared.bank,
                                    shared.counter, true);
        }

        PhysRegIndex fresh =
            allocFromBank(cls, typePred.predict(di.pc));
        if (fresh == invalidRegIndex) {
            // Unreachable via the Phase-1 feasibility check, but a
            // guarded fallback beats a panic: undo the partial work
            // (and its repair count) and report a structural stall.
            squashTo(res.token);
            repairEvents -= res.numRepairs;
            RenameResult stall;
            stall.token = res.token;
            stall.endToken = res.token;
            return stall;
        }
        PrtEntry &fe = st.prt[fresh];
        fe.allocated = true;
        fe.predIndex = typePred.indexFor(di.pc);
        PhysRegTag toTag{cls, fresh, 0};

        // Re-point the logical register (clears the stale flag).
        specMapWrite(cls, info.reg.idx, MapEntry{toTag, false}, false);

        auto &rep = res.repairList[res.numRepairs++];
        rep.logReg = info.reg;
        rep.fromTag = info.cur.tag;
        rep.toTag = toTag;
        rep.uops = uops;
        res.repairUops = static_cast<std::uint8_t>(res.repairUops + uops);
        ++repairEvents;

        info.cur = MapEntry{toTag, false};
        info.stale = false;
    }

    // Source reads: set read bits, bump use counts, record history.
    for (int t = 0; t < numSrcs; ++t) {
        SrcInfo &info = srcs[static_cast<size_t>(t)];
        ClassState &st = state(info.reg.cls);
        PrtEntry &e = st.prt[info.cur.tag.reg];

        HistoryEntry h;
        h.kind = HistKind::SrcRead;
        h.cls = info.reg.cls;
        h.phys = info.cur.tag.reg;
        h.prevReadBit = e.readBit;
        h.prevUses = e.usesCurVersion;
        h.prevReuseImpossible = e.reuseImpossible;
        pushHistory(h);

        info.wasFirstConsumer = !e.readBit;
        e.readBit = true;
        if (e.usesCurVersion < 255)
            ++e.usesCurVersion;
        ++e.totalUses;
        if (e.usesCurVersion > 1)
            e.multiUse = true;
        // Training hint: if this (first) consumer structurally cannot
        // share the register — it writes nothing, writes another
        // class, or is about to reuse a different source — then the
        // value going unshared must not train the predictor towards a
        // shadow bank.
        if (info.wasFirstConsumer &&
            (!writes || destReg.cls != info.reg.cls ||
             (reuseSrc >= 0 && reuseSrc != t))) {
            e.reuseImpossible = true;
        }

        for (int k = 0; k < info.numSlots; ++k) {
            res.srcTags[static_cast<size_t>(
                info.slots[static_cast<size_t>(k)])] = info.cur.tag;
        }
    }
    res.numSrcTags = di.si.numSrcs();

    // Destination.
    if (writes) {
        RegClass cls = destReg.cls;
        ClassState &st = state(cls);
        if (reuseSrc >= 0) {
            SrcInfo &info = srcs[static_cast<size_t>(reuseSrc)];
            PhysRegIndex phys = info.cur.tag.reg;
            PrtEntry &e = st.prt[phys];
            rrs_assert(info.wasFirstConsumer,
                       "reuse source must be first consumer");

            HistoryEntry h;
            h.kind = HistKind::ReuseBump;
            h.cls = cls;
            h.phys = phys;
            h.prevReadBit = e.readBit;          // true (we just read it)
            h.prevUses = e.usesCurVersion;
            h.staleLogReg = (info.reg == destReg) ? invalidRegIndex
                                                  : info.reg.idx;
            pushHistory(h);

            std::uint8_t newVersion =
                static_cast<std::uint8_t>(e.counter + 1);
            e.counter = newVersion;
            e.readBit = false;
            e.usesCurVersion = 0;

            if (!(info.reg == destReg)) {
                // The source logical register still names the old
                // version: mark it stale so a later consumer triggers
                // the repair path.
                st.specMap[info.reg.idx].stale = true;
            }

            PhysRegTag tag{cls, phys, newVersion};
            specMapWrite(cls, destReg.idx, MapEntry{tag, false}, false);
            res.destTag = tag;
            res.reused = true;
            res.reuseDepth = newVersion;
            ++reuses;
        } else {
            if (exhaustedSrc >= 0) {
                const SrcInfo &info =
                    srcs[static_cast<size_t>(exhaustedSrc)];
                const PrtEntry &e = state(info.reg.cls)
                                        .prt[info.cur.tag.reg];
                if (e.predIndex != noPred)
                    typePred.trainOnShadowExhausted(e.predIndex);
            }
            PhysRegIndex fresh =
                allocFromBank(cls, typePred.predict(di.pc));
            if (fresh == invalidRegIndex) {
                // See the repair-loop fallback: unwind and stall
                // instead of panicking on an empty class.
                squashTo(res.token);
                repairEvents -= res.numRepairs;
                RenameResult stall;
                stall.token = res.token;
                stall.endToken = res.token;
                return stall;
            }
            PrtEntry &fe = st.prt[fresh];
            fe.allocated = true;
            fe.predIndex = typePred.indexFor(di.pc);
            PhysRegTag tag{cls, fresh, 0};
            specMapWrite(cls, destReg.idx, MapEntry{tag, false}, false);
            res.destTag = tag;
            ++allocations;
        }
        res.hasDest = true;
        res.destReg = destReg;
    }

    res.success = true;
    res.endToken = nextToken;
    return res;
}

void
ReuseRenamer::commit(const RenameResult &result)
{
    rrs_assert(result.endToken >= historyBase,
               "commit of already-collected history");
    while (historyBase < result.endToken) {
        rrs_assert(!history.empty(), "history underflow at commit");
        history.pop_front();
        ++historyBase;
    }
    // Bound committed storage: after draining a spike (a long ROB
    // stall grows the deque far past its steady state), return the
    // spare chunks to the allocator rather than carrying the peak
    // footprint for the rest of the run.
    if (history.empty() &&
        historyPeakSinceShrink > historyShrinkThreshold) {
        history.shrink_to_fit();
        historyPeakSinceShrink = 0;
    }

    // Retirement map: repairs first (older), then the destination.
    for (int r = 0; r < result.numRepairs; ++r) {
        const auto &rep = result.repairList[static_cast<size_t>(r)];
        RegClass cls = rep.logReg.cls;
        ClassState &st = state(cls);
        PhysRegTag old = st.retMap[rep.logReg.idx];
        st.retMap[rep.logReg.idx] = rep.toTag;
        ++st.prt[rep.toTag.reg].retRefs;
        dropRetRef(cls, old.reg);
    }
    if (result.hasDest) {
        RegClass cls = result.destReg.cls;
        ClassState &st = state(cls);
        PhysRegTag old = st.retMap[result.destReg.idx];
        st.retMap[result.destReg.idx] = result.destTag;
        ++st.prt[result.destTag.reg].retRefs;
        dropRetRef(cls, old.reg);
    }
}

std::uint32_t
ReuseRenamer::squashTo(
    HistoryToken token,
    const std::function<bool(const PhysRegTag &)> &produced)
{
    rrs_assert(token >= historyBase, "squash into committed history");
    std::uint32_t recoveries = 0;
    while (nextToken > token) {
        rrs_assert(!history.empty(), "history underflow at squash");
        const HistoryEntry h = history.back();
        history.pop_back();
        --nextToken;
        ClassState &st = state(h.cls);
        switch (h.kind) {
          case HistKind::SrcRead: {
            PrtEntry &e = st.prt[h.phys];
            e.readBit = h.prevReadBit;
            e.usesCurVersion = h.prevUses;
            e.reuseImpossible = h.prevReuseImpossible;
            // Exact inverse of the unguarded ++ at rename: a register
            // with a live SrcRead entry cannot have been released
            // (in-order commit pops the entry first), so the count
            // must still include this read.
            rrs_assert(e.totalUses > 0, "source-read undo underflow");
            --e.totalUses;
            break;
          }
          case HistKind::MapWrite: {
            MapEntry cur = st.specMap[h.logReg];
            st.specMap[h.logReg] = h.prevEntry;
            ++st.prt[h.prevEntry.tag.reg].specRefs;
            dropSpecRef(h.cls, cur.tag.reg, true);
            break;
          }
          case HistKind::ReuseBump: {
            PrtEntry &e = st.prt[h.phys];
            rrs_assert(e.counter > 0, "reuse undo with zero counter");
            // A recover command is only needed when the squashed
            // version was actually written to the main cell (its
            // producer executed); otherwise the old value is still in
            // place.
            PhysRegTag squashed{h.cls, h.phys, e.counter};
            if (!produced || produced(squashed))
                ++recoveries;
            --e.counter;
            e.readBit = h.prevReadBit;
            e.usesCurVersion = h.prevUses;
            if (h.staleLogReg != invalidRegIndex)
                st.specMap[h.staleLogReg].stale = false;
            break;
          }
          case HistKind::RepairMark: {
            st.prt[h.phys].multiUse = h.prevMultiUse;
            break;
          }
        }
    }
    return recoveries;
}

bool
ReuseRenamer::injectFault(InjectedFault fault, RegClass cls)
{
    ClassState &st = state(cls);
    switch (fault) {
      case InjectedFault::FlipReadBit:
        for (auto &e : st.prt) {
            if (e.allocated) {
                e.readBit = !e.readBit;
                return true;
            }
        }
        return false;
      case InjectedFault::LeakFreeReg:
        for (auto &fl : st.freeLists) {
            if (!fl.empty()) {
                fl.pop_back();   // discarded: now in neither place
                return true;
            }
        }
        return false;
      case InjectedFault::SkipRefDrop:
        // The bug this models: a map write whose dropSpecRef never
        // ran, leaving the old register's count one too high.
        for (LogRegIndex r = 0; r < isa::numLogRegs; ++r) {
            PhysRegIndex p = st.specMap[r].tag.reg;
            if (p < st.total) {
                ++st.prt[p].specRefs;
                return true;
            }
        }
        return false;
      case InjectedFault::DoubleFree:
        for (auto &fl : st.freeLists) {
            if (!fl.empty()) {
                fl.push_back(fl.back());
                return true;
            }
        }
        return false;
    }
    return false;
}

} // namespace rrs::rename
