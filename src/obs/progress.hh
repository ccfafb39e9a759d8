/**
 * @file
 * Live sweep progress: an opt-in stderr heartbeat for long sweeps —
 * completed/total runs, runs/s, Minst/s, an ETA, and what each worker
 * lane is currently running.  Enabled by RRS_PROGRESS=1 (or
 * programmatically); throttled to at most one line per second so a
 * 300-run sweep does not flood a terminal; TTY-aware (a terminal gets
 * one carriage-return-rewritten status line, a pipe/CI log gets plain
 * newline-terminated lines).
 *
 * Writes only to stderr, never stdout: the published tables and the
 * sweep footer stay byte-identical whether progress is on or off.
 *
 * Threading: workers call beginRun/endRun concurrently; all mutable
 * state sits behind one mutex.  That lock is touched at run
 * granularity (a run is milliseconds to seconds of simulation), not
 * per cycle, so contention is noise.
 */

#ifndef RRS_OBS_PROGRESS_HH
#define RRS_OBS_PROGRESS_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace rrs::obs {

class ProgressReporter
{
  public:
    /** Counters a progress line is rendered from (pure data, for tests). */
    struct Snapshot
    {
        std::size_t completed = 0;
        std::size_t total = 0;
        double elapsedSeconds = 0;
        std::uint64_t instsDone = 0;
        /** One entry per active lane: "workload x scheme", or "". */
        std::vector<std::string> laneWork;
    };

    /**
     * @param totalRuns runs in the sweep (the denominator).
     * @param enabled   emit output; when false every call is a no-op
     *        beyond the counters.  Pass enabledByEnv() to follow
     *        RRS_PROGRESS.
     */
    ProgressReporter(std::size_t totalRuns, bool enabled);

    /** True when RRS_PROGRESS is set to anything but "" or "0". */
    static bool enabledByEnv();

    /** Worker: run `index` starts; `work` is its workload x scheme. */
    void beginRun(std::size_t index, const std::string &work);

    /** Worker: run `index` finished having simulated `insts`. */
    void endRun(std::size_t index, std::uint64_t insts);

    /**
     * After the join: emit the final 100% line (unthrottled) and, on a
     * TTY, the newline that ends the rewritten status line.
     */
    void finish();

    /**
     * Render one status line from a snapshot, e.g.
     * "sweep 12/294 (4.1%) 3.2 runs/s 1.9 Minst/s ETA 88s | dotprod x
     * reuse, fir x baseline".  Pure function, unit-testable.
     */
    static std::string formatLine(const Snapshot &s);

  private:
    void maybePrint(bool force);
    std::size_t laneIndex();

    using Clock = std::chrono::steady_clock;

    const std::size_t total;
    const bool active;
    const bool tty;
    const Clock::time_point start;

    std::mutex mtx;
    std::size_t completed = 0;
    std::uint64_t instsDone = 0;
    std::vector<std::string> lanes;
    std::vector<std::thread::id> laneThreads;   //!< the thread of each lane
    Clock::time_point lastPrint;
    bool printedAnything = false;
    std::size_t lastLineLen = 0;
};

} // namespace rrs::obs

#endif // RRS_OBS_PROGRESS_HH
