#include "tlb.hh"

#include <algorithm>
#include <bit>

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace rrs::mem {

Tlb::Tlb(const TlbParams &params)
    : params(params), pageShift(std::countr_zero(params.pageBytes)),
      entries(params.entries)
{
    rrs_assert(isPowerOf2(params.pageBytes),
               "TLB page size must be a power of two");
}

TlbResult
Tlb::translate(Addr vaddr)
{
    const Addr vpn = vaddr >> pageShift;
    std::uint32_t &slot = hint[vpn & (hintSlots - 1)];
    const Entry &hinted = entries[slot];
    if (!hinted.valid || hinted.vpn != vpn) {
        // A page has at most one valid entry, so the scan finds the
        // entry the hint would have named had it not gone stale.
        const auto it = std::find_if(
            entries.begin(), entries.end(),
            [vpn](const Entry &e) { return e.valid && e.vpn == vpn; });
        if (it == entries.end()) {
            slot = fill(vpn);
            return TlbResult{false, params.walkLatency};
        }
        slot = static_cast<std::uint32_t>(it - entries.begin());
    }
    entries[slot].lru = ++lruTick;
    return TlbResult{true, 0};
}

std::uint32_t
Tlb::fill(Addr vpn)
{
    ++misses;
    // The last invalid entry, else the least recently used one.
    Entry *victim = &entries[0];
    for (auto &e : entries) {
        if (!e.valid)
            victim = &e;
        else if (victim->valid && e.lru < victim->lru)
            victim = &e;
    }
    victim->valid = true;
    victim->vpn = vpn;
    victim->lru = ++lruTick;
    return static_cast<std::uint32_t>(victim - entries.data());
}

} // namespace rrs::mem
