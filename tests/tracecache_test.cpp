// Tests for the harness trace cache: hit/miss accounting, sharing of
// one immutable trace across requesters, and cached-vs-fresh timing
// determinism.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/threadpool.hh"
#include "harness/experiment.hh"
#include "harness/tracecache.hh"
#include "workloads/workloads.hh"

namespace {

using namespace rrs;
using harness::TraceCache;

constexpr std::uint64_t kCap = 10'000;

TEST(TraceCache, MissThenHitSharesOneTrace)
{
    TraceCache cache;
    const auto &w = workloads::workload("int_hash");

    trace::TracePtr first = cache.get(w, kCap);
    ASSERT_TRUE(first);
    EXPECT_EQ(first->size(), kCap);

    trace::TracePtr second = cache.get(w, kCap);
    // A hit returns the *same* shared trace, not an equal copy.
    EXPECT_EQ(first.get(), second.get());

    auto c = cache.counters();
    EXPECT_EQ(c.misses, 1u);
    EXPECT_EQ(c.hits, 1u);
    // Only the miss emulated: the hit captured nothing.
    EXPECT_EQ(c.capturedInsts, kCap);
}

TEST(TraceCache, ZeroCapAndExplicitDefaultShareAnEntry)
{
    TraceCache cache;
    const auto &w = workloads::workload("int_hash");

    trace::TracePtr byDefault = cache.get(w, 0);
    trace::TracePtr byValue = cache.get(w, w.defaultMaxInsts);
    EXPECT_EQ(byDefault.get(), byValue.get());

    auto c = cache.counters();
    EXPECT_EQ(c.misses, 1u);
    EXPECT_EQ(c.hits, 1u);
}

TEST(TraceCache, DistinctKeysCaptureSeparately)
{
    TraceCache cache;
    const auto &w = workloads::workload("int_hash");
    const auto &v = workloads::workload("fp_fir");

    trace::TracePtr a = cache.get(w, kCap);
    trace::TracePtr b = cache.get(w, 2 * kCap);  // same workload, other cap
    trace::TracePtr c = cache.get(v, kCap);      // other workload
    EXPECT_NE(a.get(), b.get());
    EXPECT_NE(a.get(), c.get());

    auto counters = cache.counters();
    EXPECT_EQ(counters.misses, 3u);
    EXPECT_EQ(counters.hits, 0u);
    EXPECT_EQ(counters.capturedInsts, kCap + 2 * kCap + kCap);
}

TEST(TraceCache, ConcurrentMissesCaptureOnce)
{
    TraceCache cache;
    const auto &w = workloads::workload("media_g711");

    std::vector<trace::TracePtr> got(8);
    std::vector<std::thread> threads;
    threads.reserve(got.size());
    for (auto &slot : got)
        threads.emplace_back([&] { slot = cache.get(w, kCap); });
    for (auto &t : threads)
        t.join();

    for (const auto &t : got) {
        ASSERT_TRUE(t);
        EXPECT_EQ(t.get(), got[0].get());
    }
    auto c = cache.counters();
    EXPECT_EQ(c.misses, 1u);
    EXPECT_EQ(c.hits, got.size() - 1);
    EXPECT_EQ(c.capturedInsts, kCap);
}

TEST(TraceCache, SharedTraceDigestsAgreeAcrossLanes)
{
    // The record digest is not stored: every caller folds the columns
    // itself, so lanes sharing one cached trace must all fold the same
    // value.
    TraceCache cache;
    const trace::TracePtr t = cache.get(workloads::workload("fp_fir"), kCap);
    const std::uint64_t record = t->digest();

    const ThreadPool pool;
    std::vector<std::uint64_t> got(2 * pool.numThreads());
    pool.parallelFor(got.size(),
                     [&](std::size_t i) { got[i] = t->digest(); });
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], record) << i;
}

TEST(TraceCache, SameSourceTextUnderAHeldNameHits)
{
    // Only the text counts: a copy of a registry source at another
    // address is the same program.
    TraceCache cache;
    const auto &w = workloads::workload("int_crc");
    const std::string copy = w.source;
    const workloads::Workload same{w.name, w.suite, copy.c_str(),
                                   w.defaultMaxInsts};
    trace::TracePtr first = cache.get(w, kCap);
    EXPECT_EQ(cache.get(same, kCap).get(), first.get());
}

TEST(TraceCacheDeath, AnotherSourceUnderAHeldNameIsRefused)
{
    // A name means one program: a second source under a held name is
    // refused instead of being handed the first one's trace.
    const auto &w = workloads::workload("int_crc");
    const workloads::Workload other{w.name, w.suite, "halt\n",
                                    w.defaultMaxInsts};
    EXPECT_DEATH(
        {
            TraceCache cache;
            cache.get(w, kCap);
            cache.get(other, kCap);
        },
        "trace cache: workload 'int_crc' was already captured from "
        "another source");
}

TEST(TraceCache, CachedRunMatchesFreshRun)
{
    // The whole point of the cache: a timing run over a cached trace
    // must be bit-identical to one over a freshly captured trace.
    const auto &w = workloads::workload("fp_horner");
    harness::RunConfig cfg = harness::baselineConfig(64);
    cfg.maxInsts = 30'000;

    // First runOn captures into the process-wide cache; the second
    // replays the cached trace.  Identical outcomes or the sweep
    // determinism contract is broken.
    harness::Outcome fresh = harness::runOn(w, cfg);
    harness::Outcome cached = harness::runOn(w, cfg);

    EXPECT_EQ(fresh.sim.cycles, cached.sim.cycles);
    EXPECT_EQ(fresh.sim.committedInsts, cached.sim.committedInsts);
    EXPECT_EQ(fresh.sim.committedOps, cached.sim.committedOps);
    EXPECT_EQ(fresh.condAccuracy, cached.condAccuracy);
    EXPECT_EQ(fresh.mispredicts, cached.mispredicts);
    EXPECT_EQ(fresh.allocations, cached.allocations);
    EXPECT_EQ(fresh.renameStalls, cached.renameStalls);
}

} // namespace
