/**
 * @file
 * The assembled memory hierarchy from the paper's Table I:
 * 48 KB 3-way L1I and 32 KB 2-way L1D (1 cycle), a shared 1 MB 16-way
 * L2 (12 cycles), a degree-1 stride prefetcher on the L1D, a 48-entry
 * fully-associative TLB and DDR3-1600 DRAM.  The core calls
 * fetchAccess() for instruction fetch and dataAccess() for loads and
 * committed stores.
 */

#ifndef RRS_MEM_MEMSYSTEM_HH
#define RRS_MEM_MEMSYSTEM_HH

#include <memory>

#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/tlb.hh"

namespace rrs::mem {

/** Parameters of the whole hierarchy. */
struct MemSystemParams
{
    CacheParams l1i{48 * 1024, 3, 64, 1, 4};
    CacheParams l1d{32 * 1024, 2, 64, 1, 8};
    CacheParams l2{1024 * 1024, 16, 64, 12, 16};
    DramParams dram;
    TlbParams tlb;
    bool stridePrefetcher = true;
    std::uint32_t prefetchDegree = 1;
};

/** The composed hierarchy. */
class MemSystem
{
  public:
    explicit MemSystem(const MemSystemParams &params);

    /**
     * Instruction fetch of one cache line.
     * @return absolute tick at which the fetch group is available.
     */
    Tick fetchAccess(Addr pc, Tick now);

    /**
     * Data access (load or store).  Translates through the TLB, runs
     * the stride prefetcher, and accesses the L1D.
     * @param pc      PC of the memory instruction (prefetcher index)
     * @param addr    effective address
     * @param write   true for stores; it does not affect timing, since
     *                stores allocate like loads and write-backs are free
     * @return absolute tick at which the access completes
     */
    Tick dataAccess(Addr pc, Addr addr, bool write, Tick now);

    /** Direct sub-component access for tests and reports. */
    Cache &l1i() { return *l1iCache; }
    Cache &l1d() { return *l1dCache; }
    Cache &l2() { return *l2Cache; }
    Tlb &tlb() { return *dtlb; }

  private:
    MemSystemParams params;
    std::unique_ptr<Dram> mainMem;
    std::unique_ptr<Cache> l2Cache;
    std::unique_ptr<Cache> l1iCache;
    std::unique_ptr<Cache> l1dCache;
    std::unique_ptr<Tlb> dtlb;
    std::unique_ptr<Prefetcher> stride;
};

} // namespace rrs::mem

#endif // RRS_MEM_MEMSYSTEM_HH
