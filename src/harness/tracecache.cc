#include "tracecache.hh"

#include <cstdlib>
#include <filesystem>

#include "common/logging.hh"
#include "obs/profiler.hh"
#include "trace/tracefile.hh"

namespace rrs::harness {

TraceCache::TraceCache()
{
    if (const char *env = std::getenv("RRS_TRACE_DIR"))
        dir = env;
}

trace::TracePtr
TraceCache::get(const workloads::Workload &w, std::uint64_t maxInsts)
{
    const Key key{w.name, workloads::resolvedCap(w, maxInsts)};

    std::unique_lock<std::mutex> lock(mu);
    auto it = entries.find(key);
    if (it != entries.end()) {
        ++counts.hits;
        auto future = it->second;
        lock.unlock();
        // May block until the capturing lane publishes the trace; the
        // arrival still counts as a hit because nothing was emulated
        // on its behalf.
        return future.get();
    }

    ++counts.misses;
    std::promise<trace::TracePtr> promise;
    entries.emplace(key, promise.get_future().share());
    const std::string spillTo = dir;
    lock.unlock();

    // Capture (or spill-load) outside the lock: other keys miss and
    // capture concurrently, other requesters of this key wait on the
    // future instead of re-emulating.
    trace::TracePtr trace;
    bool loaded = false;
    const std::string path =
        spillTo.empty() ? std::string{}
                        : spillTo + "/" +
                              trace::traceFileName(key.first, key.second);
    std::error_code ec;
    if (!path.empty() && std::filesystem::exists(path, ec)) {
        obs::ScopedPhase phase("trace-cache-load");
        std::string error;
        trace::TracePtr spilled = trace::tryReadTraceFile(path, error);
        if (!spilled) {
            rrs_warn("%s; recapturing", error.c_str());
        } else if (spilled->workload() == key.first &&
                   spilled->cap() == key.second &&
                   spilled->sourceHash() == workloads::sourceHash(w)) {
            trace = spilled;
            loaded = true;
        } else {
            rrs_warn("stale trace file '%s' (workload sources changed?); "
                     "recapturing", path.c_str());
        }
    }
    if (!trace)
        trace = workloads::captureTrace(w, maxInsts);

    bool stored = false;
    if (!loaded && !path.empty()) {
        obs::ScopedPhase phase("trace-cache-spill");
        std::string error;
        stored = trace::tryWriteTraceFile(path, *trace, error);
        if (!stored)
            rrs_warn_once("trace spill disabled: %s", error.c_str());
    }

    // A trace is born packed: captureTrace and tryReadTraceFile both
    // append straight into its columns, and nothing runs after them.
    lock.lock();
    if (loaded) {
        ++counts.spillLoads;
    } else {
        counts.capturedInsts += trace->size();
        if (stored)
            ++counts.spillStores;
    }
    counts.packedRecords += trace->size();
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

void
TraceCache::clear()
{
    std::lock_guard<std::mutex> lock(mu);
    entries.clear();
    counts = Counters{};
}

void
TraceCache::setSpillDir(std::string newDir)
{
    std::lock_guard<std::mutex> lock(mu);
    dir = std::move(newDir);
}

TraceCache &
traceCache()
{
    static TraceCache cache;
    return cache;
}

} // namespace rrs::harness
