/**
 * @file
 * Process-wide trace cache: capture once, replay for every sweep run.
 *
 * Keyed by (workload name, resolved stream cap).  The first requester
 * of a key captures the trace (at most one capture per key even when
 * many sweep lanes miss concurrently — later arrivals block on the
 * capturing lane's future); every later request is a cache hit that
 * shares the same immutable RecordedTrace.  A miss always captures:
 * nothing is read from or written to disk.
 *
 * Counters (hits, misses, captured vs replayed instructions) are
 * deterministic across thread counts; sweeps difference them into
 * their footer and the campaign sidecar.
 */

#ifndef RRS_HARNESS_TRACECACHE_HH
#define RRS_HARNESS_TRACECACHE_HH

#include <cstdint>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <utility>

#include "trace/recorded.hh"
#include "workloads/workloads.hh"

namespace rrs::harness {

class TraceCache
{
  public:
    /** The cache counters, all deterministic across thread counts. */
    struct Counters
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;            //!< captures
        std::uint64_t capturedInsts = 0;     //!< functionally emulated
        std::uint64_t replayedInsts = 0;     //!< fed to timing runs
    };

    /**
     * The trace for (workload, maxInsts), capturing it on first use;
     * fatal when the key's trace came from another source.
     * @param maxInsts cap override; 0 resolves to the workload default
     *        (the resolved value is the cache key, so 0 and the
     *        explicit default share an entry)
     */
    trace::TracePtr get(const workloads::Workload &w,
                        std::uint64_t maxInsts = 0);

    /** Account instructions a ReplayStream fed to a timing run. */
    void noteReplayed(std::uint64_t insts);

    /** A copy of the counters, taken under the lock. */
    Counters counters() const;

  private:
    using Key = std::pair<std::string, std::uint64_t>;

    mutable std::mutex mu;
    /** Per key: the source it was captured from, and its trace. */
    std::map<Key, std::pair<const char *, std::shared_future<trace::TracePtr>>>
        entries;

    Counters counts;   //!< guarded by `mu`, like `entries`
};

/** The process-wide cache every harness run shares. */
TraceCache &traceCache();

} // namespace rrs::harness

#endif // RRS_HARNESS_TRACECACHE_HH
