// Additional memory-hierarchy coverage: DRAM refresh windows and bus
// serialisation, cache writeback accounting, prefetcher degrees, and
// hierarchy interactions under mixed access patterns.

#include <gtest/gtest.h>

#include <vector>

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

TEST(DramExtra, RefreshWindowDelaysAccess)
{
    DramParams dp;
    Dram dram(dp);
    // An access landing inside the refresh window waits it out.
    Tick in_refresh = dram.access(0, 10) - 10;
    Dram dram2(dp);
    Tick outside = dram2.access(0, dp.refreshCycles + 100) -
                   (dp.refreshCycles + 100);
    EXPECT_GT(in_refresh, outside);
}

TEST(DramExtra, BusSerialisesBackToBackBursts)
{
    DramParams dp;
    Dram dram(dp);
    Tick now = 20000;
    // Same bank, same row: row hit each time, but the shared data bus
    // spaces the completions by at least the burst length.
    Tick t1 = dram.access(0, now);
    Tick t2 = dram.access(64, now);
    Tick t3 = dram.access(128, now);
    EXPECT_GE(t2, t1 + dp.burst);
    EXPECT_GE(t3, t2 + dp.burst);
}

TEST(CacheExtra, AlternatingConflictsMissEveryAccess)
{
    DramParams dp;
    Dram dram(dp);
    CacheParams cp{128, 1, 64, 1, 4};   // direct mapped, 2 sets
    Cache c(cp, nullptr, &dram);
    Tick now = 0;
    // Two lines of one set evict each other on every access.
    now = c.access(0x000, now);
    now = c.access(0x080, now);   // evicts 0x000
    EXPECT_EQ(c.missCount(), 2u);
    now = c.access(0x000, now);   // misses again, evicts 0x080
    now = c.access(0x080, now);   // and again
    EXPECT_EQ(c.missCount(), 4u);
}

TEST(CacheExtra, ContainsReflectsFillTiming)
{
    DramParams dp;
    Dram dram(dp);
    CacheParams cp{1024, 2, 64, 1, 4};
    Cache c(cp, nullptr, &dram);
    Tick done = c.access(0x200, 100);
    // While the fill is in flight the line is present but not usable.
    EXPECT_FALSE(c.contains(0x200, 101));
    EXPECT_TRUE(c.contains(0x200, done));
    EXPECT_FALSE(c.contains(0x999000, done));
}

TEST(CacheExtra, PrefetchDoesNotEvictPendingDemand)
{
    DramParams dp;
    Dram dram(dp);
    CacheParams cp{1024, 2, 64, 1, 2};   // only 2 MSHRs
    Cache c(cp, nullptr, &dram);
    Tick d1 = c.access(0x100, 0);
    Tick d2 = c.access(0x900, 0);
    // MSHRs are busy: a prefetch must be dropped, not stall anything.
    c.prefetch(0x2000, 1);
    EXPECT_FALSE(c.contains(0x2000, d1 + d2));
}

TEST(PrefetcherExtra, DegreeTwoIssuesTwoAddresses)
{
    Prefetcher pf(16, 2);
    Addr pc = 0x4000;
    observed(pf, pc, 0x1000);
    observed(pf, pc, 0x1040);
    observed(pf, pc, 0x1080);
    auto v = observed(pf, pc, 0x10c0);
    ASSERT_EQ(v.size(), 2u);
    EXPECT_EQ(v[0], 0x1100u);
    EXPECT_EQ(v[1], 0x1140u);
}

TEST(PrefetcherExtra, NegativeStrideWorks)
{
    Prefetcher pf(16, 1);
    Addr pc = 0x4000;
    observed(pf, pc, 0x2000);
    observed(pf, pc, 0x1fc0);
    observed(pf, pc, 0x1f80);
    auto v = observed(pf, pc, 0x1f40);
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0], 0x1f00u);
}

TEST(PrefetcherExtra, TableConflictRelearns)
{
    Prefetcher pf(1, 1);   // every PC aliases to one entry
    observed(pf, 0x4000, 0x1000);
    observed(pf, 0x4000, 0x1040);
    // A different PC steals the entry.
    observed(pf, 0x5000, 0x9000);
    // The original PC must re-establish itself without firing bogus
    // prefetches.
    auto v = observed(pf, 0x4000, 0x1080);
    EXPECT_TRUE(v.empty());
}

TEST(MemSystemExtra, StridedSweepBeatsRandomSweep)
{
    MemSystemParams mp;
    MemSystem strided(mp);
    MemSystem random(mp);
    Tick t_str = 0, t_rnd = 0;
    // 512 accesses over a 256 KB footprint (L2-resident, L1-missing).
    std::uint64_t lcg = 7;
    for (int i = 0; i < 512; ++i) {
        t_str = strided.dataAccess(0x100, 0x400000 +
                                   64 * static_cast<Addr>(i), false,
                                   t_str);
        lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        t_rnd = random.dataAccess(0x100, 0x400000 +
                                  ((lcg >> 33) % (256 * 1024) & ~63ULL),
                                  false, t_rnd);
    }
    // The stride prefetcher turns the linear sweep into hits.
    EXPECT_LT(t_str, t_rnd);
}

TEST(MemSystemExtra, TlbMissesChargeWalks)
{
    MemSystemParams mp;
    mp.stridePrefetcher = false;
    MemSystem ms(mp);
    // Touch 64 distinct pages: more than the 48-entry TLB holds.
    Tick now = 0;
    for (int i = 0; i < 64; ++i) {
        now = ms.dataAccess(0x100, 0x1000000 +
                            4096 * static_cast<Addr>(i), false, now);
    }
    EXPECT_EQ(ms.tlb().missCount(), 64u);
    // Revisit the first pages: they were evicted, walking again.
    std::uint64_t before = ms.tlb().missCount();
    now = ms.dataAccess(0x100, 0x1000000, false, now);
    EXPECT_EQ(ms.tlb().missCount(), before + 1);
}

} // namespace
