#include "threadpool.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/strutils.hh"

namespace rrs {

unsigned
ThreadPool::defaultThreadCount()
{
    if (const std::optional<std::int64_t> v = envCount(
            "RRS_THREADS", 1, std::numeric_limits<unsigned>::max()))
        return static_cast<unsigned>(*v);
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

ThreadPool::ThreadPool(unsigned numThreads)
    : lanes(numThreads ? numThreads : defaultThreadCount())
{
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &fn) const
{
    if (n == 0)
        return;
    // The claim counter and the error slot are the only state the
    // lanes share; each fn(i) owns whatever index i writes.
    std::atomic<std::size_t> next{0};
    std::mutex errorMutex;
    std::exception_ptr firstError;
    auto lane = [&] {
        for (std::size_t i = next++; i < n; i = next++) {
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(errorMutex);
                if (!firstError)
                    firstError = std::current_exception();
            }
        }
    };

    const std::size_t helperCount = std::min<std::size_t>(lanes, n) - 1;
    std::vector<std::thread> helpers;
    helpers.reserve(helperCount);
    try {
        while (helpers.size() < helperCount)
            helpers.emplace_back(lane);
    } catch (...) {
        // A joinable std::thread must not be destroyed: the helpers
        // already started finish the loop before the error leaves.
        for (std::thread &t : helpers)
            t.join();
        throw;
    }
    lane();
    for (std::thread &t : helpers)
        t.join();
    if (firstError)
        std::rethrow_exception(firstError);
}

} // namespace rrs
