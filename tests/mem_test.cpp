// Unit tests for the memory hierarchy: caches (hits, misses, LRU,
// MSHRs), the stride prefetcher, the TLB and the DRAM timing model.

#include <gtest/gtest.h>

#include "mem/memsystem.hh"

namespace {

using namespace rrs;
using namespace rrs::mem;

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
    EXPECT_TRUE(pf.observe(pc, 0x1000).empty());
    EXPECT_TRUE(pf.observe(pc, 0x1040).empty());   // stride learned
    EXPECT_TRUE(pf.observe(pc, 0x1080).empty());   // confidence 1
    auto v = pf.observe(pc, 0x10c0);               // confidence 2: fire
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
        fired += pf.observe(pc, a).size();
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

TEST(MemSystemTest, FetchPathUsesL1I)
{
    MemSystemParams mp;
    MemSystem ms(mp);
    Tick t1 = ms.fetchAccess(0x10000, 0);
    Tick t2 = ms.fetchAccess(0x10010, t1);
    EXPECT_EQ(t2 - t1, 1u);   // same line: L1I hit
}

} // namespace
