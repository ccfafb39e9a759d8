/**
 * @file
 * Host-side phase profiler: where does the *simulator's own* wall
 * clock go?  Pipetrace and stall attribution explain simulated cycles;
 * this explains host seconds, the way simulator-evaluation studies
 * report capture / warmup / simulate breakdowns as first-class metrics.
 *
 * Usage: wrap a region in a RAII `ScopedPhase("name")`.  A phase
 * opened inside another is recorded under the "/"-joined path
 * ("capture/warmup"), as one row of entry count and monotonic-clock
 * seconds.  Everything is off unless `RRS_PROF=1` (or `--prof` on a
 * bench, or `Profiler::setEnabled`); when off, a ScopedPhase costs
 * exactly one branch on a cached bool — cheap enough to leave in the
 * hot harness paths permanently.
 *
 * Threading model (mirrors the sweep's merge-after-join):
 *
 *  - A sweep lane is *bound* to its run's own table (`Profiler::Bind`)
 *    for the duration of each run, from an empty path: a run table has
 *    one writer, and the caller's open "sweep" phase never prefixes a
 *    run's rows.  The runner adds the run tables to the merged run
 *    table after the pool has joined, in submission order, so the
 *    merged counts — and the order of FP additions — are identical for
 *    every `RRS_THREADS` value, exactly like the sweep's Outcomes.
 *  - Unbound threads (the main thread, analysis lanes) record into one
 *    process-wide host table under the profiler's mutex.  The host
 *    side sees a handful of coarse phases per process, so the lock
 *    costs nothing measurable, and report() may run at any time.
 */

#ifndef RRS_OBS_PROFILER_HH
#define RRS_OBS_PROFILER_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace rrs::obs {

namespace detail {
/** The cached enable flag ScopedPhase branches on. */
extern bool profilerEnabled;
} // namespace detail

/** One phase path: entry count + accumulated seconds. */
struct PhaseRow
{
    std::string path;   //!< "/"-joined, e.g. "capture/warmup"
    std::uint64_t count = 0;
    double seconds = 0;
    /** Merged run table only: one µs total per run that entered the
     *  path, for per-run p50/p95/max via stats::percentile(). */
    std::vector<std::uint64_t> perRunUs;
};

/** Phase rows in first-entry order: a row is created when its phase is
 *  entered, so a parent precedes its children. */
struct PhaseTable
{
    std::vector<PhaseRow> rows;
    std::uint64_t runs = 0;   //!< run tables merged in (Profiler::addRun)

    /** The row of `path`, inserted at index `at` (default: appended)
     *  when absent. */
    PhaseRow &row(std::string_view path, std::size_t at = SIZE_MAX);
};

/** The process-wide profile: one host table, one merged run table. */
class Profiler
{
  public:
    /** The one cached-bool branch every ScopedPhase pays when off. */
    static bool enabled() { return detail::profilerEnabled; }

    /** Flip at runtime (bench --prof, tests).  Not thread-safe: set
     *  before profiled work starts. */
    static void setEnabled(bool on) { detail::profilerEnabled = on; }

    /** RAII: the calling thread records into `table` (a sweep run's
     *  own; nullptr: the host table) from an empty path, until
     *  destruction restores its previous table and path. */
    class Bind
    {
      public:
        explicit Bind(PhaseTable *table);
        ~Bind();
        Bind(const Bind &) = delete;
        Bind &operator=(const Bind &) = delete;

      private:
        PhaseTable *prevTable;
        std::string prevPath;
    };

    /** Fold a finished run's table into the merged run table: call
     *  post-join, in submission order, from the sweep's caller.  A path
     *  new to the merged table goes in front of the run's next path. */
    static void addRun(const PhaseTable &run);

    /** Snapshot of the merged run table. */
    static PhaseTable runTable();

    /** Print the host rows indented by depth, then the per-run table
     *  (count, total seconds, p50/p95/max per-run µs). */
    static void report(std::ostream &os);

    /** Drop all recorded data (tests; not while phases are open). */
    static void reset();
};

/** RAII phase marker; records nothing while the profiler is off. */
class ScopedPhase
{
  public:
    explicit ScopedPhase(const char *name)
    {
        if (Profiler::enabled())
            begin(name);
    }

    ~ScopedPhase()
    {
        if (active)
            end();
    }

    ScopedPhase(const ScopedPhase &) = delete;
    ScopedPhase &operator=(const ScopedPhase &) = delete;

  private:
    void begin(const char *name);
    void end();

    bool active = false;
    std::size_t parentLength = 0;   //!< the thread's path before entry
    std::chrono::steady_clock::time_point t0;
};

} // namespace rrs::obs

#endif // RRS_OBS_PROFILER_HH
