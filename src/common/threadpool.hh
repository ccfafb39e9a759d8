/**
 * @file
 * Fan-out over independent simulation runs.
 *
 * Every use in the tree is one flat loop over runs that share nothing
 * (the sweep engine's configs, the equal-area solver's rows), so the
 * pool is exactly that loop:
 *
 *  - The lane count is fixed at construction.  `0` picks the default:
 *    the `RRS_THREADS` environment variable if set and not empty,
 *    otherwise the hardware concurrency.
 *  - parallelFor(n, fn) runs min(numThreads(), n) lanes: the caller
 *    plus helper threads started for the call and joined before it
 *    returns.  Each lane claims the next index from one atomic counter
 *    until none are left.  With one lane every index runs on the
 *    calling thread and no thread starts, which keeps single-threaded
 *    runs trivially debuggable.
 *  - Every index runs even when one throws; the first exception caught
 *    is rethrown after the join.  A sweep never stops short because
 *    one config asserted.
 *  - A parallelFor inside fn starts helpers of its own.
 *
 * The pool provides *no* ordering or affinity guarantees.  Determinism
 * of results is the caller's contract: every index must be
 * self-contained (own RNG, own model state, writes only its own output
 * slot), which is exactly how harness::SweepRunner uses it.
 */

#ifndef RRS_COMMON_THREADPOOL_HH
#define RRS_COMMON_THREADPOOL_HH

#include <cstddef>
#include <functional>

namespace rrs {

/** The pool: a resolved lane count and the loop that uses it. */
class ThreadPool
{
  public:
    /**
     * @param numThreads execution lanes requested, the caller
     *        included; 0 picks defaultThreadCount().
     */
    explicit ThreadPool(unsigned numThreads = 0);

    /**
     * `RRS_THREADS` (rrs::envCount: fatal unless a positive integer
     * that fits an unsigned), else std::thread::hardware_concurrency(),
     * else 1.
     */
    static unsigned defaultThreadCount();

    /** Execution lanes: the calling thread plus its helpers. */
    unsigned numThreads() const { return lanes; }

    /**
     * Run fn(0) .. fn(n-1) and return once all have finished, then
     * rethrow the first exception any of them threw.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &fn) const;

  private:
    unsigned lanes;
};

} // namespace rrs

#endif // RRS_COMMON_THREADPOOL_HH
