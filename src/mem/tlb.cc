#include "tlb.hh"

namespace rrs::mem {

Tlb::Tlb(const TlbParams &params)
    : params(params), entries(params.entries)
{
}

TlbResult
Tlb::translate(Addr vaddr)
{
    const Addr vpn = vaddr / params.pageBytes;
    Entry *victim = &entries[0];
    for (auto &e : entries) {
        if (e.valid && e.vpn == vpn) {
            e.lru = ++lruTick;
            return TlbResult{true, 0};
        }
        if (!e.valid)
            victim = &e;
        else if (victim->valid && e.lru < victim->lru)
            victim = &e;
    }
    ++misses;
    victim->valid = true;
    victim->vpn = vpn;
    victim->lru = ++lruTick;
    return TlbResult{false, params.walkLatency};
}

} // namespace rrs::mem
