#include "audit.hh"

#include <cstdio>

#include "common/logging.hh"
#include "rename/baseline.hh"
#include "rename/reuse.hh"

namespace rrs::rename {

const char *
toString(AuditInvariant inv)
{
    switch (inv) {
      case AuditInvariant::SpecRefCount:      return "specRefCount";
      case AuditInvariant::RetRefCount:       return "retRefCount";
      case AuditInvariant::FreeListPartition: return "freeListPartition";
      case AuditInvariant::CounterCapacity:   return "counterCapacity";
      case AuditInvariant::CounterWidth:      return "counterWidth";
      case AuditInvariant::CounterAllocated:  return "counterAllocated";
      case AuditInvariant::HistorySize:       return "historySize";
      case AuditInvariant::StaleBit:          return "staleBit";
      case AuditInvariant::VersionRange:      return "versionRange";
      case AuditInvariant::ReadBitUses:       return "readBitUses";
      case AuditInvariant::FreeEntryState:    return "freeEntryState";
    }
    return "unknown";
}

std::string
AuditViolation::toString() const
{
    std::string where = phys == invalidRegIndex
                            ? std::string("<global>")
                            : (std::string(regClassName(cls)) + " P" +
                               std::to_string(phys));
    return formatString("[%s] %s: %s", rename::toString(invariant),
                        where.c_str(), detail.c_str());
}

bool
AuditReport::names(AuditInvariant inv) const
{
    for (const auto &v : violations) {
        if (v.invariant == inv)
            return true;
    }
    return false;
}

std::string
AuditReport::toString() const
{
    if (clean())
        return "audit clean";
    std::string out;
    for (const auto &v : violations) {
        out += v.toString();
        out += '\n';
    }
    return out;
}

namespace {

void
add(AuditReport &report, AuditInvariant inv, RegClass cls,
    PhysRegIndex phys, std::string detail)
{
    report.violations.push_back(
        AuditViolation{inv, cls, phys, std::move(detail)});
}

} // namespace

AuditReport
RenameAuditor::audit(const Renamer &renamer)
{
    if (auto *reuse = dynamic_cast<const ReuseRenamer *>(&renamer))
        return audit(*reuse);
    if (auto *base = dynamic_cast<const BaselineRenamer *>(&renamer))
        return audit(*base);
    rrs_panic("RenameAuditor: unknown renamer type");
}

AuditReport
RenameAuditor::audit(const ReuseRenamer &rn)
{
    ++auditsRun;
    AuditReport report;
    const std::uint8_t maxCtr =
        static_cast<std::uint8_t>((1u << rn.params.counterBits) - 1);

    for (int c = 0; c < numRegClasses; ++c) {
        const auto cls = static_cast<RegClass>(c);
        const ReuseRenamer::ClassState &st = rn.classes[c];

        // Reference counts recomputed from the map tables.
        std::vector<std::uint32_t> specCount(st.total, 0);
        std::vector<std::uint32_t> retCount(st.total, 0);
        for (LogRegIndex r = 0; r < isa::numLogRegs; ++r) {
            const ReuseRenamer::MapEntry &e = st.specMap[r];
            const PhysRegTag &ret = st.retMap[r];
            if (e.tag.reg < st.total)
                ++specCount[e.tag.reg];
            if (ret.reg < st.total)
                ++retCount[ret.reg];

            // Map-entry-level checks against the PRT.
            if (e.tag.reg < st.total) {
                const auto &pe = st.prt[e.tag.reg];
                if (e.tag.version > pe.counter) {
                    add(report, AuditInvariant::VersionRange, cls,
                        e.tag.reg,
                        formatString("spec map r%u names version %u but "
                                     "counter is %u",
                                     r, e.tag.version, pe.counter));
                }
                const bool expectStale = pe.counter > e.tag.version;
                if (e.stale != expectStale) {
                    add(report, AuditInvariant::StaleBit, cls, e.tag.reg,
                        formatString("spec map r%u: stale=%d but counter "
                                     "%u vs version %u implies stale=%d",
                                     r, e.stale ? 1 : 0, pe.counter,
                                     e.tag.version, expectStale ? 1 : 0));
                }
            } else {
                add(report, AuditInvariant::SpecRefCount, cls, e.tag.reg,
                    formatString("spec map r%u names out-of-range P%u",
                                 r, e.tag.reg));
            }
            if (ret.reg < st.total) {
                const auto &pe = st.prt[ret.reg];
                if (ret.version > pe.counter) {
                    add(report, AuditInvariant::VersionRange, cls,
                        ret.reg,
                        formatString("ret map r%u names version %u but "
                                     "counter is %u",
                                     r, ret.version, pe.counter));
                }
            } else {
                add(report, AuditInvariant::RetRefCount, cls, ret.reg,
                    formatString("ret map r%u names out-of-range P%u",
                                 r, ret.reg));
            }
        }

        // Free lists: in-range, unique, home bank, unallocated.
        std::vector<std::uint8_t> inFree(st.total, 0);
        for (int b = 0; b < 4; ++b) {
            for (PhysRegIndex p : st.freeLists[static_cast<size_t>(b)]) {
                if (p >= st.total) {
                    add(report, AuditInvariant::FreeListPartition, cls, p,
                        formatString("free list %d holds out-of-range "
                                     "P%u (total %u)", b, p, st.total));
                    continue;
                }
                if (inFree[p]) {
                    add(report, AuditInvariant::FreeListPartition, cls, p,
                        formatString("P%u appears on a free list twice "
                                     "(double free)", p));
                }
                inFree[p] = 1;
                if (st.prt[p].bank != b) {
                    add(report, AuditInvariant::FreeListPartition, cls, p,
                        formatString("P%u (bank %u) sits on free list "
                                     "%d", p, st.prt[p].bank, b));
                }
            }
        }

        // Per-register PRT checks.
        for (PhysRegIndex p = 0; p < st.total; ++p) {
            const auto &pe = st.prt[p];

            if (pe.allocated == static_cast<bool>(inFree[p])) {
                add(report, AuditInvariant::FreeListPartition, cls, p,
                    pe.allocated
                        ? formatString("P%u is allocated AND on a free "
                                       "list", p)
                        : formatString("P%u is neither allocated nor on "
                                       "a free list (leak)", p));
            }

            if (pe.specRefs != specCount[p]) {
                add(report, AuditInvariant::SpecRefCount, cls, p,
                    formatString("specRefs=%u but %u spec map entries "
                                 "name P%u", pe.specRefs, specCount[p],
                                 p));
            }
            if (pe.retRefs != retCount[p]) {
                add(report, AuditInvariant::RetRefCount, cls, p,
                    formatString("retRefs=%u but %u ret map entries "
                                 "name P%u", pe.retRefs, retCount[p],
                                 p));
            }

            if (pe.counter > pe.bank) {
                add(report, AuditInvariant::CounterCapacity, cls, p,
                    formatString("counter %u exceeds the %u shadow "
                                 "cells of bank %u", pe.counter,
                                 pe.bank, pe.bank));
            }
            if (pe.counter > maxCtr) {
                add(report, AuditInvariant::CounterWidth, cls, p,
                    formatString("counter %u overflows the %u-bit "
                                 "field (max %u)", pe.counter,
                                 rn.params.counterBits, maxCtr));
            }
            if (pe.counter > 0 && !pe.allocated) {
                add(report, AuditInvariant::CounterAllocated, cls, p,
                    formatString("counter %u on unallocated P%u",
                                 pe.counter, p));
            }

            if (pe.allocated &&
                pe.readBit != (pe.usesCurVersion > 0)) {
                add(report, AuditInvariant::ReadBitUses, cls, p,
                    formatString("readBit=%d but usesCurVersion=%u",
                                 pe.readBit ? 1 : 0, pe.usesCurVersion));
            }

            if (!pe.allocated &&
                (pe.counter != 0 || pe.specRefs != 0 ||
                 pe.retRefs != 0 || pe.readBit ||
                 pe.usesCurVersion != 0 || pe.totalUses != 0 ||
                 pe.multiUse || pe.reuseImpossible ||
                 pe.predIndex != ReuseRenamer::noPred)) {
                add(report, AuditInvariant::FreeEntryState, cls, p,
                    formatString("free P%u carries live state (ctr=%u "
                                 "spec=%u ret=%u read=%d uses=%u "
                                 "total=%u)", p, pe.counter, pe.specRefs,
                                 pe.retRefs, pe.readBit ? 1 : 0,
                                 pe.usesCurVersion, pe.totalUses));
            }
        }
    }

    // History-deque accounting.
    const std::uint64_t expectHist = rn.nextToken - rn.historyBase;
    if (rn.history.size() != expectHist) {
        add(report, AuditInvariant::HistorySize, RegClass::Int,
            invalidRegIndex,
            formatString("history holds %zu entries but tokens span "
                         "%llu (base %llu, next %llu)",
                         rn.history.size(),
                         static_cast<unsigned long long>(expectHist),
                         static_cast<unsigned long long>(rn.historyBase),
                         static_cast<unsigned long long>(rn.nextToken)));
    }

    violationsFound += report.violations.size();
    return report;
}

AuditReport
RenameAuditor::audit(const BaselineRenamer &rn)
{
    ++auditsRun;
    AuditReport report;

    // Occurrences of each physical register: the free list, the
    // speculative map and the pending release slots of the history
    // buffer must partition the register file — every register in
    // exactly one place.
    for (int c = 0; c < numRegClasses; ++c) {
        const auto cls = static_cast<RegClass>(c);
        const BaselineRenamer::ClassState &st = rn.classes[c];
        const std::uint32_t total = rn.totalRegs(cls);
        std::vector<std::uint32_t> seen(total, 0);
        auto occupy = [&](PhysRegIndex p, const char *what) {
            if (p >= total) {
                add(report, AuditInvariant::FreeListPartition, cls, p,
                    formatString("%s holds out-of-range P%u (total %u)",
                                 what, p, total));
                return;
            }
            ++seen[p];
        };
        for (PhysRegIndex p : st.freeList)
            occupy(p, "free list");
        for (LogRegIndex r = 0; r < isa::numLogRegs; ++r)
            occupy(st.map[r], "spec map");
        for (const auto &h : rn.history) {
            if (h.cls == cls)
                occupy(h.releaseAtCommit, "history release slot");
        }
        for (PhysRegIndex p = 0; p < total; ++p) {
            if (seen[p] != 1) {
                add(report, AuditInvariant::FreeListPartition, cls, p,
                    formatString("P%u appears %u times across free "
                                 "list + map + pending releases "
                                 "(expected exactly 1)", p, seen[p]));
            }
        }
    }

    const std::uint64_t expectHist = rn.nextToken - rn.historyBase;
    if (rn.history.size() != expectHist) {
        add(report, AuditInvariant::HistorySize, RegClass::Int,
            invalidRegIndex,
            formatString("history holds %zu entries but tokens span "
                         "%llu (base %llu, next %llu)",
                         rn.history.size(),
                         static_cast<unsigned long long>(expectHist),
                         static_cast<unsigned long long>(rn.historyBase),
                         static_cast<unsigned long long>(rn.nextToken)));
    }

    violationsFound += report.violations.size();
    return report;
}

void
RenameAuditor::check(const Renamer &renamer, const char *where)
{
    AuditReport report = audit(renamer);
    if (!report.clean()) {
        rrs_panic("rename audit failed at %s (%zu violations):\n%s",
                  where, report.violations.size(),
                  report.toString().c_str());
    }
}

} // namespace rrs::rename
