/**
 * @file
 * A timing decorator for rename::Renamer.  It forwards every virtual to
 * the wrapped renamer unchanged and times the three calls the core makes
 * per instruction or squash (rename, commit, squashTo), so a run behind
 * it is bit-identical to a run on the bare renamer.
 *
 * The calls are timed in raw time-stamp-counter ticks: reading the TSC
 * without the ordering fence clock_gettime adds keeps the decorator's own
 * cost, paid around every call, small.  The pass converts ticks to
 * seconds with the tick rate it measures against steady_clock.
 */

#ifndef RRBENCH_TIMED_HH
#define RRBENCH_TIMED_HH

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "bench.hh"
#include "rename/renamer.hh"

namespace rrbench {

/** A cheap monotonic tick count (TSC; steady_clock ns elsewhere). */
inline std::uint64_t
ticks()
{
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#else
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch()).count());
#endif
}

class TimedRenamer final : public rrs::rename::Renamer
{
  public:
    explicit TimedRenamer(rrs::rename::Renamer &inner)
        : Renamer("timed_renamer", nullptr), inner(inner) {}

    const RenamerCounts &counts() const { return c; }

    rrs::rename::RenameResult
    rename(const rrs::trace::DynInst &di,
           const std::function<bool(const rrs::rename::PhysRegTag &)>
               &producerExecuted) override
    {
        const std::uint64_t t0 = ticks();
        rrs::rename::RenameResult r = inner.rename(di, producerExecuted);
        c.renameTicks += ticks() - t0;
        ++c.renameCalls;
        if (!r.success) {
            ++c.renameStalls;
        } else {
            ++c.renamed;
            c.dests += r.hasDest;
            c.reused += r.reused;
            c.repairs += r.numRepairs;
        }
        return r;
    }

    void
    commit(const rrs::rename::RenameResult &result) override
    {
        const std::uint64_t t0 = ticks();
        inner.commit(result);
        c.commitTicks += ticks() - t0;
        ++c.commitCalls;
    }

    std::uint32_t
    squashTo(rrs::rename::HistoryToken token,
             const std::function<bool(const rrs::rename::PhysRegTag &)>
                 &produced) override
    {
        const std::uint64_t t0 = ticks();
        const std::uint32_t rec = inner.squashTo(token, produced);
        c.squashTicks += ticks() - t0;
        ++c.squashCalls;
        c.recoverCmds += rec;
        return rec;
    }

    rrs::rename::HistoryToken
    historyPosition() const override
    {
        return inner.historyPosition();
    }

    rrs::rename::PhysRegTag
    mapping(rrs::RegClass cls, rrs::LogRegIndex reg) const override
    {
        return inner.mapping(cls, reg);
    }

    std::uint32_t
    freeRegs(rrs::RegClass cls) const override
    {
        return inner.freeRegs(cls);
    }

    std::uint32_t
    totalRegs(rrs::RegClass cls) const override
    {
        return inner.totalRegs(cls);
    }

    std::uint32_t
    sharedRegs(rrs::RegClass cls) const override
    {
        return inner.sharedRegs(cls);
    }

    std::uint32_t
    sharedAtLeast(rrs::RegClass cls, std::uint8_t k) const override
    {
        return inner.sharedAtLeast(cls, k);
    }

    std::uint32_t
    maxVersions() const override
    {
        return inner.maxVersions();
    }

    std::uint32_t
    committedShadowValues() const override
    {
        return inner.committedShadowValues();
    }

  private:
    rrs::rename::Renamer &inner;
    RenamerCounts c;
};

} // namespace rrbench

#endif // RRBENCH_TIMED_HH
