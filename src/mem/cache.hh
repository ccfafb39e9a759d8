/**
 * @file
 * Set-associative cache timing model with LRU replacement, a bounded
 * MSHR file (miss merging + structural stalls) and a prefetch-insert
 * entry point, plus the stride prefetcher that mem::MemSystem drives
 * into its L1D.  Loads and stores look up and allocate alike; write-backs
 * cost no time in this model, so a line keeps no dirty state.
 *
 * Caches form a linear hierarchy (L1 -> L2 -> DRAM).  The model is
 * latency-based: access() returns the absolute tick at which the
 * requested data is available, updating tag/MSHR state as a side
 * effect.  This matches a trace-driven core that needs per-request
 * latencies rather than a full event-driven memory system.
 */

#ifndef RRS_MEM_CACHE_HH
#define RRS_MEM_CACHE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "mem/dram.hh"

namespace rrs::mem {

/** Cache geometry and timing. */
struct CacheParams
{
    std::uint64_t sizeBytes = 32 * 1024;
    std::uint32_t assoc = 2;
    std::uint32_t lineBytes = 64;   //!< a power of two, as is the set count
    Cycles hitLatency = 1;
    std::uint32_t mshrs = 8;
};

/**
 * One cache level.  The level below is either another Cache or the
 * Dram (exactly one must be given).
 */
class Cache
{
  public:
    Cache(const CacheParams &params, Cache *below, Dram *dram);

    /**
     * Demand access (load or store: both allocate on a miss).
     * @param addr byte address
     * @param now current tick
     * @return absolute tick when the data is available
     */
    Tick access(Addr addr, Tick now);

    /**
     * Prefetch insert: fetch the line (if absent) without a demand
     * requester.  Latency is absorbed; subsequent demand accesses see
     * a hit once the fill completes.
     */
    void prefetch(Addr addr, Tick now);

    /** True if the line is resident *now* (test/introspection). */
    bool contains(Addr addr, Tick now) const;

    std::uint64_t hitCount() const { return hits; }
    std::uint64_t missCount() const { return misses; }

  private:
    struct Line
    {
        bool valid = false;
        Addr tag = 0;
        std::uint64_t lru = 0;
        Tick fillDone = 0;   //!< data not usable before this tick
    };

    struct Mshr
    {
        bool valid = false;
        Addr lineAddr = 0;
        Tick done = 0;
    };

    Addr lineAddr(Addr addr) const { return addr >> lineShift; }
    std::uint32_t
    setIndex(Addr line) const
    {
        return static_cast<std::uint32_t>(line & (sets - 1));
    }
    Line *findLine(Addr line);
    const Line *findLine(Addr line) const;
    Line &victimLine(Addr line);
    Tick fillFromBelow(Addr addr, Tick now);

    CacheParams params;
    std::uint32_t sets;
    unsigned lineShift;
    Cache *below;
    Dram *dram;
    std::vector<Line> lines;
    std::vector<Mshr> mshrFile;
    std::uint64_t lruTick = 0;

    std::uint64_t hits = 0;     //!< demand hits on a filled line
    std::uint64_t misses = 0;   //!< demand misses
};

/**
 * PC-indexed stride prefetcher (degree 1, per the paper's Table I).
 * Observes demand accesses and issues next-line-by-stride prefetches
 * into its cache.
 */
class Prefetcher
{
  public:
    /** @param tableEntries a power of two */
    explicit Prefetcher(std::uint32_t tableEntries = 64,
                        std::uint32_t degree = 1);

    /**
     * Observe a demand access and call issue(Addr) once per prefetch
     * address, nearest first: degree of them once pc's stride is
     * confident, none before.
     */
    template <typename Issue>
    void
    observe(Addr pc, Addr addr, Issue &&issue)
    {
        const std::int64_t step = train(pc, addr);
        for (std::uint32_t d = 1; step != 0 && d <= degree; ++d) {
            issue(static_cast<Addr>(static_cast<std::int64_t>(addr) +
                                    static_cast<std::int64_t>(d) * step));
        }
    }

  private:
    /** Record addr in pc's entry; the stride to prefetch by, or 0. */
    std::int64_t train(Addr pc, Addr addr);

    struct Entry
    {
        bool valid = false;
        Addr pc = 0;
        Addr lastAddr = 0;
        std::int64_t stride = 0;
        std::uint8_t confidence = 0;
    };

    std::vector<Entry> table;
    std::uint32_t degree;
};

} // namespace rrs::mem

#endif // RRS_MEM_CACHE_HH
