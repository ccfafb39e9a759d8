// Tests for the harness trace cache: hit/miss accounting, sharing of
// one immutable trace across requesters, cached-vs-fresh timing
// determinism, and the RRS_TRACE_DIR spill path including stale and
// corrupt file recovery.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <thread>
#include <utility>
#include <vector>

#include "common/threadpool.hh"
#include "harness/experiment.hh"
#include "harness/tracecache.hh"
#include "trace/tracefile.hh"
#include "workloads/workloads.hh"

namespace {

using namespace rrs;
using harness::TraceCache;

constexpr std::uint64_t kCap = 10'000;

// A spill directory that is empty even when a previous run of this
// binary left files behind (TempDir is not per-invocation).
std::string
freshSpillDir(const char *name)
{
    const std::string dir = ::testing::TempDir() + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

TEST(TraceCache, MissThenHitSharesOneTrace)
{
    TraceCache cache;
    cache.setSpillDir("");  // in-memory only for this test
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
    EXPECT_EQ(c.capturedInsts, kCap);
    EXPECT_EQ(c.spillLoads, 0u);
    EXPECT_EQ(c.spillStores, 0u);
    // The capture packed its columns exactly once — the hit did not
    // re-pack (decode-once invariant).
    EXPECT_EQ(c.packedRecords, kCap);
}

TEST(TraceCache, ZeroCapAndExplicitDefaultShareAnEntry)
{
    TraceCache cache;
    cache.setSpillDir("");
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
    cache.setSpillDir("");
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
    cache.setSpillDir("");
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
    // Neither digest is stored: every caller folds the columns itself,
    // so lanes sharing one cached trace must all fold the same values.
    TraceCache cache;
    cache.setSpillDir("");
    const trace::TracePtr t = cache.get(workloads::workload("fp_fir"), kCap);
    const std::uint64_t record = t->digest();
    const std::uint64_t packed = t->packed().digest();

    const ThreadPool pool;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> got(
        2 * pool.numThreads());
    pool.parallelFor(got.size(), [&](std::size_t i) {
        got[i] = {t->digest(), t->packed().digest()};
    });
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].first, record) << i;
        EXPECT_EQ(got[i].second, packed) << i;
    }
}

TEST(TraceCache, ClearResetsEntriesAndCounters)
{
    TraceCache cache;
    cache.setSpillDir("");
    const auto &w = workloads::workload("int_hash");
    cache.get(w, kCap);
    cache.get(w, kCap);
    cache.clear();

    auto c = cache.counters();
    EXPECT_EQ(c.hits, 0u);
    EXPECT_EQ(c.misses, 0u);
    EXPECT_EQ(c.capturedInsts, 0u);

    cache.get(w, kCap);
    EXPECT_EQ(cache.counters().misses, 1u);  // entry was really dropped
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

TEST(TraceCache, SpillStoreAndLoadRoundTrip)
{
    const std::string dir = freshSpillDir("rrs_spill_rt");
    const auto &w = workloads::workload("int_sieve");

    TraceCache writer;
    writer.setSpillDir(dir);
    trace::TracePtr captured = writer.get(w, kCap);
    EXPECT_EQ(writer.counters().spillStores, 1u);
    EXPECT_EQ(writer.counters().spillLoads, 0u);

    // A second cache (≈ a later process) with the same dir loads the
    // spill instead of emulating.
    TraceCache reader;
    reader.setSpillDir(dir);
    trace::TracePtr loaded = reader.get(w, kCap);
    auto c = reader.counters();
    EXPECT_EQ(c.spillLoads, 1u);
    EXPECT_EQ(c.spillStores, 0u);
    EXPECT_EQ(c.capturedInsts, 0u);  // nothing was emulated
    // The loaded trace was packed once, on load.
    EXPECT_EQ(c.packedRecords, kCap);

    ASSERT_TRUE(loaded);
    EXPECT_EQ(loaded->digest(), captured->digest());
    EXPECT_EQ(loaded->size(), captured->size());
    EXPECT_EQ(loaded->sourceHash(), captured->sourceHash());
}

TEST(TraceCache, StaleSpillIsRecapturedNotTrusted)
{
    const std::string dir = freshSpillDir("rrs_spill_stale");
    const auto &w = workloads::workload("int_sieve");

    // Plant a file under the right name whose source hash doesn't
    // match the registry (as if the workload's assembly changed).
    trace::TracePtr real = workloads::captureTrace(w, kCap);
    std::vector<trace::DynInst> insts;
    for (std::size_t i = 0; i < real->size(); ++i)
        insts.push_back((*real)[i]);
    trace::RecordedTrace forged(w.name, kCap,
                                workloads::sourceHash(w) ^ 1, insts);
    const std::string path =
        dir + "/" + trace::traceFileName(w.name, kCap);
    trace::writeTraceFile(path, forged);

    TraceCache cache;
    cache.setSpillDir(dir);
    trace::TracePtr t = cache.get(w, kCap);
    ASSERT_TRUE(t);
    EXPECT_EQ(t->sourceHash(), workloads::sourceHash(w));

    auto c = cache.counters();
    EXPECT_EQ(c.spillLoads, 0u);        // the stale file was not trusted
    EXPECT_EQ(c.capturedInsts, kCap);   // it recaptured instead
}

TEST(TraceCache, CorruptSpillIsRecapturedNotFatal)
{
    const auto &w = workloads::workload("int_sieve");
    const std::string name = trace::traceFileName(w.name, kCap);

    // Plain garbage, and a version-1 header (the row-major format of
    // older builds): both are recaptured with the reader's diagnostic
    // on stderr.
    std::string v1Bytes;
    {
        const std::string dir = freshSpillDir("rrs_spill_v1_src");
        trace::writeTraceFile(dir + "/" + name,
                              *workloads::captureTrace(w, kCap));
        std::ifstream in(dir + "/" + name, std::ios::binary);
        v1Bytes.assign(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
        v1Bytes[4] = 1;  // the version field follows the 4-byte magic
    }
    const std::pair<std::string, std::string> inputs[] = {
        {"this is not a trace file", "is too short"},
        {v1Bytes, "unsupported trace version 1"},
    };
    for (const auto &[bytes, diagnostic] : inputs) {
        const std::string dir = freshSpillDir("rrs_spill_corrupt");
        const std::string path = dir + "/" + name;
        {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out << bytes;
        }

        TraceCache cache;
        cache.setSpillDir(dir);
        ::testing::internal::CaptureStderr();
        trace::TracePtr t = cache.get(w, kCap);  // must not fatal
        const std::string warned = ::testing::internal::GetCapturedStderr();
        ASSERT_TRUE(t);
        EXPECT_EQ(t->size(), kCap);
        EXPECT_EQ(cache.counters().spillLoads, 0u);
        EXPECT_EQ(cache.counters().capturedInsts, kCap);
        EXPECT_NE(warned.find(diagnostic), std::string::npos) << warned;
        EXPECT_NE(warned.find(path), std::string::npos) << warned;
        EXPECT_NE(warned.find("recapturing"), std::string::npos) << warned;
    }
}

TEST(TraceCache, MissingSpillIsCapturedSilently)
{
    const std::string dir = freshSpillDir("rrs_spill_missing");
    TraceCache cache;
    cache.setSpillDir(dir);
    ::testing::internal::CaptureStderr();
    trace::TracePtr t = cache.get(workloads::workload("int_sieve"), kCap);
    EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
    ASSERT_TRUE(t);
    EXPECT_EQ(cache.counters().spillStores, 1u);
}

TEST(TraceCache, UnwritableSpillDirDisablesSpillNotFatal)
{
    TraceCache cache;
    cache.setSpillDir("/nonexistent-spill-dir");
    const auto &w = workloads::workload("int_sieve");
    trace::TracePtr t = cache.get(w, kCap);  // must not fatal
    ASSERT_TRUE(t);
    EXPECT_EQ(cache.counters().spillStores, 0u);
    EXPECT_EQ(cache.counters().capturedInsts, kCap);
}

} // namespace
