#include "progress.hh"

#include <cstdio>

#include <unistd.h>

#include "common/strutils.hh"

namespace rrs::obs {

namespace {

/** RRS_PROGRESS, read once during static initialisation. */
const bool progressByEnv = envFlag("RRS_PROGRESS");

} // namespace

ProgressReporter::ProgressReporter(std::size_t totalRuns, bool enabled)
    : total(totalRuns), active(enabled),
      tty(isatty(fileno(stderr)) != 0), start(Clock::now()),
      lastPrint(start - std::chrono::seconds(2))
{
}

bool
ProgressReporter::enabledByEnv()
{
    return progressByEnv;
}

std::size_t
ProgressReporter::laneIndex()
{
    // Each thread that reports (the pool's lanes and the participating
    // caller) claims a lane on first use.  The key is the thread id,
    // kept in the reporter: a reporter of a later sweep can take this
    // one's address, so a per-thread slot keyed on `this` would hand it
    // a lane it never created.  Called with mtx held.
    const std::thread::id self = std::this_thread::get_id();
    for (std::size_t i = 0; i < laneThreads.size(); ++i) {
        if (laneThreads[i] == self)
            return i;
    }
    laneThreads.push_back(self);
    lanes.emplace_back();
    return lanes.size() - 1;
}

void
ProgressReporter::beginRun(std::size_t index, const std::string &work)
{
    (void)index;
    if (!active)
        return;
    std::lock_guard<std::mutex> lock(mtx);
    lanes[laneIndex()] = work;
    maybePrint(false);
}

void
ProgressReporter::endRun(std::size_t index, std::uint64_t insts)
{
    (void)index;
    if (!active)
        return;
    std::lock_guard<std::mutex> lock(mtx);
    lanes[laneIndex()].clear();
    ++completed;
    instsDone += insts;
    maybePrint(false);
}

void
ProgressReporter::finish()
{
    if (!active)
        return;
    std::lock_guard<std::mutex> lock(mtx);
    for (auto &lane : lanes)
        lane.clear();
    maybePrint(true);
    if (tty && printedAnything)
        std::fputc('\n', stderr);
}

std::string
ProgressReporter::formatLine(const Snapshot &s)
{
    const double pct =
        s.total ? 100.0 * static_cast<double>(s.completed) /
                      static_cast<double>(s.total)
                : 0.0;
    const double runsPerSec =
        s.elapsedSeconds > 0
            ? static_cast<double>(s.completed) / s.elapsedSeconds
            : 0.0;
    const double minstPerSec =
        s.elapsedSeconds > 0
            ? static_cast<double>(s.instsDone) / s.elapsedSeconds / 1e6
            : 0.0;

    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "sweep %zu/%zu (%.1f%%) %.1f runs/s %.2f Minst/s",
                  s.completed, s.total, pct, runsPerSec, minstPerSec);
    std::string line = buf;
    // ETA only once there is something to extrapolate from: the first
    // sub-second heartbeat divides by a near-zero elapsed time (inf or
    // wildly wrong estimates), and zero completed runs means the rate
    // is pure noise.
    if (runsPerSec > 0 && s.completed > 0 && s.elapsedSeconds >= 1.0 &&
        s.completed < s.total) {
        double eta = static_cast<double>(s.total - s.completed) /
                     runsPerSec;
        if (!(eta >= 0))
            eta = 0;   // clamp negatives and NaN
        std::snprintf(buf, sizeof(buf), " ETA %.0fs", eta);
        line += buf;
    }

    std::string work;
    for (const std::string &lane : s.laneWork) {
        if (lane.empty())
            continue;
        if (!work.empty())
            work += ", ";
        work += lane;
    }
    if (!work.empty())
        line += " | " + work;
    return line;
}

void
ProgressReporter::maybePrint(bool force)
{
    // mtx held by the caller.
    const Clock::time_point now = Clock::now();
    if (!force && now - lastPrint < std::chrono::seconds(1))
        return;
    lastPrint = now;

    Snapshot s;
    s.completed = completed;
    s.total = total;
    s.elapsedSeconds =
        std::chrono::duration<double>(now - start).count();
    s.instsDone = instsDone;
    s.laneWork = lanes;
    std::string line = formatLine(s);

    if (tty) {
        // Rewrite one status line in place; pad over the previous
        // line's tail so a shorter update leaves no droppings.
        const std::size_t len = line.size();
        if (len < lastLineLen)
            line.append(lastLineLen - len, ' ');
        lastLineLen = len;
        std::fprintf(stderr, "\r%s", line.c_str());
    } else {
        std::fprintf(stderr, "%s\n", line.c_str());
    }
    std::fflush(stderr);
    printedAnything = true;
}

} // namespace rrs::obs
