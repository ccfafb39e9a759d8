// Unit tests for the thread pool's parallelFor: every index runs once
// at any lane count and fills its own slot, one lane stays on the
// calling thread and runs the indices in order, exceptions propagate
// after every index has run, nested loops, a no-op stress run, and
// RRS_THREADS parsing.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/threadpool.hh"

namespace {

using rrs::ThreadPool;

TEST(ThreadPoolConfig, DefaultThreadCountHonoursEnv)
{
    ::unsetenv("RRS_THREADS");
    const unsigned fallback = ThreadPool::defaultThreadCount();
    EXPECT_GE(fallback, 1u);
    ::setenv("RRS_THREADS", "3", 1);
    EXPECT_EQ(ThreadPool::defaultThreadCount(), 3u);
    // Empty means unset.
    ::setenv("RRS_THREADS", "", 1);
    EXPECT_EQ(ThreadPool::defaultThreadCount(), fallback);
    // Zero, negatives, garbage and values past unsigned are refused by
    // name instead of running on some other lane count.
    for (const std::string bad : {"0", "-1", "abc", "4294967297"}) {
        ::setenv("RRS_THREADS", bad.c_str(), 1);
        EXPECT_DEATH(ThreadPool::defaultThreadCount(),
                     "RRS_THREADS must be a positive integer up to "
                     "4294967295, got '" + bad + "'");
    }
    ::unsetenv("RRS_THREADS");
}

TEST(ThreadPoolConfig, ReportsLaneCount)
{
    EXPECT_EQ(ThreadPool(4).numThreads(), 4u);
    EXPECT_EQ(ThreadPool(1).numThreads(), 1u);
}

// One lane starts no thread: every index runs on the caller.
TEST(ThreadPoolConfig, SingleLaneSpawnsNoWorkers)
{
    ThreadPool pool(1);
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::thread::id> ranOn(32);
    pool.parallelFor(ranOn.size(), [&ranOn](std::size_t i) {
        ranOn[i] = std::this_thread::get_id();
    });
    for (std::size_t i = 0; i < ranOn.size(); ++i)
        EXPECT_EQ(ranOn[i], caller) << "index " << i;
}

// With no helper thread the caller's lane claims the indices one by
// one, so they run in ascending order.
TEST(ThreadPoolRun, CallerExecutesWhenNoWorkers)
{
    ThreadPool pool(1);
    std::vector<std::size_t> order;
    pool.parallelFor(32, [&order](std::size_t i) { order.push_back(i); });
    ASSERT_EQ(order.size(), 32u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

// Every index writes only its own slot, so each slot must hold its own
// index's value whichever lane ran it.
TEST(ThreadPoolRun, SlotOrderedResults)
{
    for (unsigned threads : {1u, 2u, 4u}) {
        ThreadPool pool(threads);
        constexpr std::size_t n = 200;
        std::vector<std::size_t> out(n, 0);
        pool.parallelFor(n, [&out](std::size_t i) { out[i] = i * i; });
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(out[i], i * i) << "threads=" << threads;
    }
}

TEST(ThreadPoolRun, ParallelForCoversEveryIndexOnce)
{
    for (unsigned threads : {1u, 2u, 4u}) {
        ThreadPool pool(threads);
        constexpr std::size_t n = 500;
        std::vector<std::atomic<int>> hits(n);
        pool.parallelFor(n, [&hits](std::size_t i) { ++hits[i]; });
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(hits[i].load(), 1)
                << "index " << i << ", threads=" << threads;
    }
}

TEST(ThreadPoolErrors, ParallelForRethrowsAndCompletes)
{
    ThreadPool pool(4);
    std::atomic<int> ran{0};
    EXPECT_THROW(pool.parallelFor(64,
                                  [&ran](std::size_t i) {
                                      if (i == 63)
                                          throw std::logic_error("boom");
                                      ++ran;
                                  }),
                 std::logic_error);
    EXPECT_EQ(ran.load(), 63);
}

TEST(ThreadPoolNesting, NestedParallelFor)
{
    ThreadPool pool(4);
    std::vector<std::array<int, 8>> grid(8);
    pool.parallelFor(grid.size(), [&](std::size_t row) {
        pool.parallelFor(8, [&grid, row](std::size_t col) {
            grid[row][col] = static_cast<int>(row * 8 + col);
        });
    });
    int expected = 0;
    for (const auto &row : grid)
        for (int v : row)
            EXPECT_EQ(v, expected++);
}

TEST(ThreadPoolStress, TenThousandNoops)
{
    ThreadPool pool(4);
    std::atomic<std::size_t> count{0};
    constexpr std::size_t n = 10'000;
    pool.parallelFor(n, [&count](std::size_t) {
        count.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(count.load(), n);
}

} // namespace
