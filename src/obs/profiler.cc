#include "profiler.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <utility>

#include "common/strutils.hh"
#include "stats/stats.hh"

namespace rrs::obs {

bool detail::profilerEnabled = envFlag("RRS_PROF");

namespace {

std::mutex mu;
PhaseTable host;   //!< unbound threads' phases, under mu
PhaseTable runs;   //!< merged run tables (post-join), under mu

/** The table the thread records into (null: the host table) and the
 *  path of its innermost open phase. */
thread_local PhaseTable *tlTable = nullptr;
thread_local std::string tlPath;

/** Charge the thread's current path in its table. */
void
charge(std::uint64_t entries, double seconds)
{
    std::unique_lock<std::mutex> lock(mu, std::defer_lock);
    if (!tlTable)
        lock.lock();
    PhaseRow &r = (tlTable ? *tlTable : host).row(tlPath);
    r.count += entries;
    r.seconds += seconds;
}

} // namespace

PhaseRow &
PhaseTable::row(std::string_view path, std::size_t at)
{
    for (PhaseRow &r : rows) {
        if (r.path == path)
            return r;
    }
    const auto it = rows.emplace(rows.begin() + std::min(at, rows.size()));
    it->path = path;
    return *it;
}

Profiler::Bind::Bind(PhaseTable *table)
    : prevTable(std::exchange(tlTable, table)),
      prevPath(std::exchange(tlPath, std::string()))
{
}

Profiler::Bind::~Bind()
{
    tlTable = prevTable;
    tlPath = std::move(prevPath);
}

void
Profiler::addRun(const PhaseTable &run)
{
    // Post-join, one caller thread: the lock only guards against a
    // concurrent report() from another control thread.
    std::lock_guard<std::mutex> lock(mu);
    // Backwards, so the merged order keeps each run's order whichever
    // run entered a phase first: a trace is captured by whichever run
    // asks for it first, so which runs hold the capture rows varies.
    std::size_t next = runs.rows.size();
    for (auto r = run.rows.rbegin(); r != run.rows.rend(); ++r) {
        PhaseRow &merged = runs.row(r->path, next);
        merged.count += r->count;
        merged.seconds += r->seconds;
        merged.perRunUs.push_back(
            static_cast<std::uint64_t>(std::llround(r->seconds * 1e6)));
        next = static_cast<std::size_t>(&merged - runs.rows.data());
    }
    ++runs.runs;
}

PhaseTable
Profiler::runTable()
{
    std::lock_guard<std::mutex> lock(mu);
    return runs;
}

void
Profiler::report(std::ostream &os)
{
    std::lock_guard<std::mutex> lock(mu);
    os << "phase profile (host wall clock, RRS_PROF):\n";
    if (host.rows.empty())
        os << "  (no host phases recorded)\n";
    char buf[224];
    for (const PhaseRow &r : host.rows) {
        // A row's share is of its parent row, a top-level row's of all
        // top-level rows together.
        const std::size_t slash = r.path.rfind('/');
        const bool top = slash == std::string::npos;
        double parentSeconds = 0;
        for (const PhaseRow &p : host.rows) {
            if (top ? p.path.find('/') == std::string::npos
                    : p.path == std::string_view(r.path).substr(0, slash))
                parentSeconds += p.seconds;
        }
        const int depth =
            static_cast<int>(std::count(r.path.begin(), r.path.end(), '/'));
        std::snprintf(buf, sizeof(buf),
                      "  %*s%-*s %10llu x %10.3f s %5.1f%%\n", depth * 2, "",
                      std::max(2, 24 - depth * 2),
                      r.path.c_str() + (top ? 0 : slash + 1),
                      static_cast<unsigned long long>(r.count), r.seconds,
                      parentSeconds > 0 ? 100.0 * r.seconds / parentSeconds
                                        : 0.0);
        os << buf;
    }

    if (runs.runs == 0)
        return;
    std::snprintf(buf, sizeof(buf),
                  "per-run phase latencies (%llu run tables merged "
                  "post-join; deterministic across RRS_THREADS):\n"
                  "  %-24s %10s %10s %10s %10s %10s\n",
                  static_cast<unsigned long long>(runs.runs), "phase",
                  "count", "total_s", "p50_us", "p95_us", "max_us");
    os << buf;
    for (const PhaseRow &r : runs.rows) {
        std::snprintf(buf, sizeof(buf),
                      "  %-24s %10llu %10.3f %10.0f %10.0f %10.0f\n",
                      r.path.c_str(),
                      static_cast<unsigned long long>(r.count), r.seconds,
                      stats::percentile(r.perRunUs, 50),
                      stats::percentile(r.perRunUs, 95),
                      stats::percentile(r.perRunUs, 100));
        os << buf;
    }
}

void
Profiler::reset()
{
    std::lock_guard<std::mutex> lock(mu);
    host = runs = PhaseTable{};
}

void
ScopedPhase::begin(const char *name)
{
    parentLength = tlPath.size();
    tlPath.append(parentLength > 0 ? "/" : "").append(name);
    active = true;
    // Create the row on entry, so a parent precedes its children.
    charge(0, 0.0);
    t0 = std::chrono::steady_clock::now();
}

void
ScopedPhase::end()
{
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    charge(1, dt.count());
    tlPath.resize(parentLength);
}

} // namespace rrs::obs
