// Unit tests for the memory hierarchy: caches (hits, misses, LRU,
// MSHRs), the stride prefetcher, the TLB and the DRAM timing model.

#include <gtest/gtest.h>

#include <vector>

#include "common/random.hh"
#include "mem/memsystem.hh"

namespace {

using namespace rrs;
using namespace rrs::mem;

/** The prefetch addresses one observed access issues. */
std::vector<Addr>
observed(Prefetcher &pf, Addr pc, Addr addr)
{
    std::vector<Addr> out;
    pf.observe(pc, addr, [&](Addr a) { out.push_back(a); });
    return out;
}

/**
 * The TLB as a plain associative scan, with no page hint: the
 * reference that Tlb's hits, latencies and walks must match.
 */
class ScanTlb
{
  public:
    explicit ScanTlb(const TlbParams &params)
        : params(params), entries(params.entries)
    {
    }

    TlbResult
    translate(Addr vaddr)
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

    std::uint64_t missCount() const { return misses; }

  private:
    struct Entry
    {
        bool valid = false;
        Addr vpn = 0;
        std::uint64_t lru = 0;
    };

    TlbParams params;
    std::vector<Entry> entries;
    std::uint64_t lruTick = 0;
    std::uint64_t misses = 0;
};

TEST(DramTest, RowHitFasterThanMiss)
{
    DramParams dp;
    Dram dram(dp);
    Tick t1 = dram.access(0, 0);          // row miss (closed)
    Tick t2 = dram.access(1, t1) - t1;    // same row: hit
    Tick first = t1;
    EXPECT_LT(t2, first);
}

TEST(DramTest, RowConflictSlowest)
{
    DramParams dp;
    dp.ranks = 1;
    dp.banksPerRank = 1;   // force conflicts
    Dram dram(dp);
    Tick now = 20000;      // away from the refresh window
    Tick t1 = dram.access(0, now);
    Tick hit = dram.access(1, t1) - t1;
    // Different row in the same bank: conflict (precharge + activate).
    Tick conflict = dram.access(dp.rowBytes / 64 * 64 + dp.rowBytes, t1) - t1;
    EXPECT_GT(conflict, hit);
}

TEST(DramTest, BankParallelism)
{
    DramParams dp;
    Dram dram(dp);
    Tick now = 20000;
    // Two accesses to different banks overlap except for the bus.
    Tick t1 = dram.access(0, now);
    Tick t2 = dram.access(dp.rowBytes, now);   // next bank
    EXPECT_LT(t2 - now, (t1 - now) * 2);
}

TEST(CacheTest, HitAfterMiss)
{
    DramParams dp;
    Dram dram(dp);
    CacheParams cp{1024, 2, 64, 1, 4};
    Cache c(cp, nullptr, &dram);

    Tick t1 = c.access(0x100, 0);
    EXPECT_GT(t1, 1u);   // miss went to DRAM
    EXPECT_EQ(c.missCount(), 1u);
    Tick t2 = c.access(0x108, t1);   // same line
    EXPECT_EQ(t2, t1 + 1);                  // hit latency 1
    EXPECT_EQ(c.hitCount(), 1u);
}

TEST(CacheTest, LruEviction)
{
    DramParams dp;
    Dram dram(dp);
    // 2 sets x 2 ways x 64B = 256B cache.
    CacheParams cp{256, 2, 64, 1, 4};
    Cache c(cp, nullptr, &dram);

    Tick now = 0;
    now = c.access(0x000, now);   // set 0
    now = c.access(0x080, now);   // set 0 (2 sets: 0x80 = set 0? line 2 % 2 = 0)
    now = c.access(0x100, now);   // set 0: evicts 0x000
    now = c.access(0x000, now);
    EXPECT_EQ(c.missCount(), 4u);        // re-miss after eviction
}

TEST(CacheTest, ConflictEvictionCountsMisses)
{
    DramParams dp;
    Dram dram(dp);
    CacheParams cp{128, 1, 64, 1, 4};   // direct-mapped, 2 lines
    Cache c(cp, nullptr, &dram);
    Tick now = 0;
    now = c.access(0x000, now);   // line in set 0
    now = c.access(0x080, now);   // evicts it (set 0 again)
    EXPECT_GE(c.missCount(), 2u);
}

TEST(CacheTest, HierarchyL2FasterThanDram)
{
    MemSystemParams mp;
    MemSystem ms(mp);
    Tick cold = ms.dataAccess(0x1000, 0x200000, false, 0);
    // Evict nothing; L1 hit now.
    Tick l1 = ms.dataAccess(0x1000, 0x200000, false, cold) - cold;
    EXPECT_LE(l1, 2u);
    EXPECT_LT(l1, cold);
}

TEST(CacheTest, MshrMergeGivesPendingLatency)
{
    DramParams dp;
    Dram dram(dp);
    CacheParams cp{1024, 2, 64, 1, 4};
    Cache c(cp, nullptr, &dram);
    Tick done1 = c.access(0x100, 1000);
    // A second access to the same line while the fill is in flight
    // completes with the fill, not with a fresh DRAM trip.
    Tick done2 = c.access(0x110, 1001);
    EXPECT_LE(done2, done1 + 1);
}

TEST(PrefetcherTest, DetectsConstantStride)
{
    Prefetcher pf(16, 1);
    Addr pc = 0x4000;
    EXPECT_TRUE(observed(pf, pc, 0x1000).empty());
    EXPECT_TRUE(observed(pf, pc, 0x1040).empty());   // stride learned
    EXPECT_TRUE(observed(pf, pc, 0x1080).empty());   // confidence 1
    auto v = observed(pf, pc, 0x10c0);               // confidence 2: fire
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0], 0x1100u);
}

TEST(PrefetcherTest, RandomPatternStaysQuiet)
{
    Prefetcher pf(16, 1);
    Addr pc = 0x4000;
    Addr addrs[] = {0x1000, 0x5340, 0x2780, 0x9100, 0x0040, 0x7777};
    std::size_t fired = 0;
    for (Addr a : addrs)
        fired += observed(pf, pc, a).size();
    EXPECT_EQ(fired, 0u);
}

TEST(PrefetcherTest, PrefetchTurnsMissIntoHit)
{
    MemSystemParams mp;
    MemSystem ms(mp);
    Addr pc = 0x4000;
    Tick now = 0;
    // Establish the stride, then check a later access hits.
    for (int i = 0; i < 8; ++i)
        now = ms.dataAccess(pc, 0x100000 + 64 * static_cast<Addr>(i),
                            false, now);
    std::uint64_t misses_before = ms.l1d().missCount();
    now = ms.dataAccess(pc, 0x100000 + 64 * 8, false, now);
    EXPECT_EQ(ms.l1d().missCount(), misses_before);   // prefetched
}

TEST(TlbTest, HitAfterWalk)
{
    TlbParams tp;
    Tlb tlb(tp);
    auto r1 = tlb.translate(0x123456);
    EXPECT_FALSE(r1.hit);
    EXPECT_EQ(r1.latency, tp.walkLatency);
    auto r2 = tlb.translate(0x123000);
    EXPECT_TRUE(r2.hit);
    EXPECT_EQ(r2.latency, 0u);
}

TEST(TlbTest, LruCapacity)
{
    TlbParams tp;
    tp.entries = 2;
    Tlb tlb(tp);
    tlb.translate(0x1000);
    tlb.translate(0x2000);
    tlb.translate(0x3000);   // evicts page 1
    EXPECT_FALSE(tlb.translate(0x1000).hit);
    EXPECT_EQ(tlb.missCount(), 4u);
}

TEST(TlbTest, MatchesTheAssociativeScan)
{
    // Strided sweeps, a pool of more live pages than entries, and
    // pages 64 VPNs apart (one hint slot), interleaved at random.
    for (std::uint32_t entries : {48u, 2u}) {
        SCOPED_TRACE(entries);
        TlbParams tp;
        tp.entries = entries;
        Tlb tlb(tp);
        ScanTlb scan(tp);
        Random rng(entries);
        const Addr page = tp.pageBytes;
        std::uint64_t step = 0, hits = 0;
        auto check = [&](Addr vaddr) {
            const TlbResult got = tlb.translate(vaddr);
            const TlbResult want = scan.translate(vaddr);
            EXPECT_EQ(got.hit, want.hit) << "step " << step;
            EXPECT_EQ(got.latency, want.latency) << "step " << step;
            EXPECT_EQ(tlb.missCount(), scan.missCount()) << "step " << step;
            hits += want.hit;
            ++step;
        };
        for (int burst = 0; burst < 2000 && !HasFailure(); ++burst) {
            const Addr base = rng.below(Addr{1} << 24) * page;
            switch (rng.below(3)) {
              case 0: {
                const Addr stride = Addr{8} << rng.below(14);
                for (Addr i = 0; i < 64; ++i)
                    check(base + i * stride);
                break;
              }
              case 1:
                for (int i = 0; i < 64; ++i)
                    check(0x40000000 + rng.below(80) * page + rng.below(page));
                break;
              default:
                for (int i = 0; i < 64; ++i)
                    check(base + rng.below(6) * 64 * page + rng.below(page));
                break;
            }
        }
        EXPECT_GT(scan.missCount(), 1000u);
        EXPECT_GT(hits, 1000u);
    }
}

TEST(TlbTest, HintAtARefilledEntryMisses)
{
    TlbParams tp;
    tp.entries = 2;
    Tlb tlb(tp);
    tlb.translate(0x1000);   // page 1 into entry 1, the last invalid
    tlb.translate(0x2000);   // page 2 into entry 0
    tlb.translate(0x3000);   // page 3 evicts page 1 from entry 1
    // Page 1's hint still names entry 1, which now holds page 3.
    EXPECT_FALSE(tlb.translate(0x1000).hit);
    EXPECT_EQ(tlb.missCount(), 4u);
}

TEST(TlbTest, PagesSharingAHintSlotBothHit)
{
    TlbParams tp;
    Tlb tlb(tp);
    const Addr a = 5 * tp.pageBytes;
    const Addr b = (5 + 64) * tp.pageBytes;   // same hint slot
    EXPECT_FALSE(tlb.translate(a).hit);
    EXPECT_FALSE(tlb.translate(b).hit);
    for (int i = 0; i < 4; ++i) {
        EXPECT_TRUE(tlb.translate(a + 8).hit);
        EXPECT_TRUE(tlb.translate(b + 8).hit);
    }
    EXPECT_EQ(tlb.missCount(), 2u);
}

// Lines, sets, pages and prefetcher entries are found by shift and
// mask, so each count must be a power of two.
TEST(MemGeometryDeath, CacheSetsMustBeAPowerOf2)
{
    Dram dram{DramParams{}};
    EXPECT_DEATH(Cache(CacheParams{48 * 1024, 2, 64, 1, 4}, nullptr, &dram),
                 "assertion failed: isPowerOf2\\(sets\\)");
}

TEST(MemGeometryDeath, CacheLineMustBeAPowerOf2)
{
    Dram dram{DramParams{}};
    EXPECT_DEATH(Cache(CacheParams{1536, 2, 48, 1, 4}, nullptr, &dram),
                 "assertion failed: isPowerOf2\\(params.lineBytes\\)");
}

TEST(MemGeometryDeath, TlbPageMustBeAPowerOf2)
{
    TlbParams tp;
    tp.pageBytes = 3000;
    EXPECT_DEATH(Tlb{tp},
                 "assertion failed: isPowerOf2\\(params.pageBytes\\)");
}

TEST(MemGeometryDeath, PrefetcherTableMustBeAPowerOf2)
{
    EXPECT_DEATH(Prefetcher(48, 1),
                 "assertion failed: isPowerOf2\\(tableEntries\\)");
}

TEST(MemSystemTest, FetchPathUsesL1I)
{
    MemSystemParams mp;
    MemSystem ms(mp);
    Tick t1 = ms.fetchAccess(0x10000, 0);
    Tick t2 = ms.fetchAccess(0x10010, t1);
    EXPECT_EQ(t2 - t1, 1u);   // same line: L1I hit
}

} // namespace
