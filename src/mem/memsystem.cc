#include "memsystem.hh"

namespace rrs::mem {

MemSystem::MemSystem(const MemSystemParams &params) : params(params)
{
    mainMem = std::make_unique<Dram>(params.dram);
    l2Cache = std::make_unique<Cache>(params.l2, nullptr, mainMem.get());
    l1iCache = std::make_unique<Cache>(params.l1i, l2Cache.get(), nullptr);
    l1dCache = std::make_unique<Cache>(params.l1d, l2Cache.get(), nullptr);
    dtlb = std::make_unique<Tlb>(params.tlb);
    if (params.stridePrefetcher) {
        stride = std::make_unique<Prefetcher>(64, params.prefetchDegree);
    }
}

Tick
MemSystem::fetchAccess(Addr pc, Tick now)
{
    return l1iCache->access(pc, now);
}

Tick
MemSystem::dataAccess(Addr pc, Addr addr, bool /*write*/, Tick now)
{
    const Tick start = now + dtlb->translate(addr).latency;
    if (stride) {
        stride->observe(pc, addr,
                        [&](Addr pf) { l1dCache->prefetch(pf, start); });
    }
    return l1dCache->access(addr, start);
}

} // namespace rrs::mem
