/**
 * @file
 * Fully-associative LRU TLB (paper Table I: 48-entry L1 TLB) with a
 * fixed page-walk cost on misses.  Also exposes miss events so the
 * harness can turn a configurable fraction of them into page-fault
 * exceptions for the precise-exception experiments.
 */

#ifndef RRS_MEM_TLB_HH
#define RRS_MEM_TLB_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace rrs::mem {

/** TLB parameters. */
struct TlbParams
{
    std::uint32_t entries = 48;
    std::uint64_t pageBytes = 4096;   //!< a power of two
    Cycles walkLatency = 30;   //!< page table walk cost on a miss
};

/** Result of a translation. */
struct TlbResult
{
    bool hit = true;
    Cycles latency = 0;   //!< extra cycles beyond the cache access
};

/**
 * Fully-associative, LRU-replaced TLB.  A page hint table, indexed by
 * the low VPN bits, remembers which entry last held a page of each
 * slot, so a translation usually checks one entry; the associative
 * scan runs only when that entry has since been refilled.  The hint
 * changes no hit, miss or victim.
 */
class Tlb
{
  public:
    explicit Tlb(const TlbParams &params);

    /** Translate; misses insert the page and charge the walk. */
    TlbResult translate(Addr vaddr);

    std::uint64_t missCount() const { return misses; }

  private:
    struct Entry
    {
        bool valid = false;
        Addr vpn = 0;
        std::uint64_t lru = 0;
    };

    /** Slots of the page hint table. */
    static constexpr std::size_t hintSlots = 64;

    /** Walk the page table for vpn into the victim; its entry index. */
    std::uint32_t fill(Addr vpn);

    TlbParams params;
    unsigned pageShift;
    std::vector<Entry> entries;
    /** Per slot, the entry that last held a page of that slot. */
    std::array<std::uint32_t, hintSlots> hint{};
    std::uint64_t lruTick = 0;
    std::uint64_t misses = 0;   //!< page walks
};

} // namespace rrs::mem

#endif // RRS_MEM_TLB_HH
