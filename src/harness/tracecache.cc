#include "tracecache.hh"

#include "common/logging.hh"

namespace rrs::harness {

trace::TracePtr
TraceCache::get(const workloads::Workload &w, std::uint64_t maxInsts)
{
    const Key key{w.name, workloads::resolvedCap(w, maxInsts)};

    std::unique_lock<std::mutex> lock(mu);
    auto it = entries.find(key);
    if (it != entries.end()) {
        ++counts.hits;
        const auto [source, future] = it->second;
        lock.unlock();
        // May block until the capturing lane publishes the trace; the
        // arrival still counts as a hit because nothing was emulated
        // on its behalf.
        trace::TracePtr trace = future.get();
        // Registry entries share one source pointer, so only a foreign
        // source pays for hashing.
        if (source != w.source &&
            trace->sourceHash() != workloads::sourceHash(w))
            rrs_fatal("trace cache: workload '%s' was already captured "
                      "from another source", w.name.c_str());
        return trace;
    }

    ++counts.misses;
    std::promise<trace::TracePtr> promise;
    entries.emplace(key, std::pair{w.source, promise.get_future().share()});
    lock.unlock();

    // Capture outside the lock: other keys miss and capture
    // concurrently, other requesters of this key wait on the future
    // instead of re-emulating.
    trace::TracePtr trace = workloads::captureTrace(w, maxInsts);

    lock.lock();
    counts.capturedInsts += trace->size();
    lock.unlock();

    promise.set_value(trace);
    return trace;
}

void
TraceCache::noteReplayed(std::uint64_t insts)
{
    std::lock_guard<std::mutex> lock(mu);
    counts.replayedInsts += insts;
}

TraceCache::Counters
TraceCache::counters() const
{
    std::lock_guard<std::mutex> lock(mu);
    return counts;
}

TraceCache &
traceCache()
{
    static TraceCache cache;
    return cache;
}

} // namespace rrs::harness
