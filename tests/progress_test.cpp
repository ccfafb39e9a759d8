// Tests for the progress heartbeat (obs/progress.hh).  The line
// renderer, formatLine, is a pure function, so the ETA guards — no
// estimate from a sub-second elapsed time, from zero completed runs,
// or past the end of the sweep, and never a negative ETA — pin down
// exactly.  The first heartbeat of a sweep used to divide by a
// near-zero elapsed time and print "ETA 9223372036854775807s"-class
// garbage.  The reporter itself must give each reporter its own lanes
// even when a later one reuses an earlier one's address.

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "obs/progress.hh"

namespace {

using rrs::obs::ProgressReporter;
using Snapshot = ProgressReporter::Snapshot;

TEST(ProgressFormat, BasicLine)
{
    Snapshot s;
    s.completed = 12;
    s.total = 294;
    s.elapsedSeconds = 4.0;
    s.instsDone = 8'000'000;
    const std::string line = ProgressReporter::formatLine(s);
    EXPECT_EQ(line,
              "sweep 12/294 (4.1%) 3.0 runs/s 2.00 Minst/s ETA 94s");
}

TEST(ProgressFormat, NoEtaBeforeOneSecondElapsed)
{
    Snapshot s;
    s.completed = 3;
    s.total = 100;
    s.elapsedSeconds = 0.001;   // first heartbeat: rate is garbage
    const std::string line = ProgressReporter::formatLine(s);
    EXPECT_EQ(line.find("ETA"), std::string::npos) << line;
}

TEST(ProgressFormat, NoEtaWithZeroCompletedRuns)
{
    Snapshot s;
    s.completed = 0;
    s.total = 100;
    s.elapsedSeconds = 30.0;
    const std::string line = ProgressReporter::formatLine(s);
    EXPECT_EQ(line.find("ETA"), std::string::npos) << line;
    EXPECT_NE(line.find("sweep 0/100"), std::string::npos) << line;
}

TEST(ProgressFormat, NoEtaOnceComplete)
{
    Snapshot s;
    s.completed = 100;
    s.total = 100;
    s.elapsedSeconds = 12.0;
    const std::string line = ProgressReporter::formatLine(s);
    EXPECT_EQ(line.find("ETA"), std::string::npos) << line;
    EXPECT_NE(line.find("(100.0%)"), std::string::npos) << line;
}

TEST(ProgressFormat, ZeroElapsedNeverDivides)
{
    Snapshot s;
    s.completed = 5;
    s.total = 10;
    s.elapsedSeconds = 0.0;
    const std::string line = ProgressReporter::formatLine(s);
    EXPECT_EQ(line, "sweep 5/10 (50.0%) 0.0 runs/s 0.00 Minst/s");
}

TEST(ProgressFormat, EmptyTotalIsSafe)
{
    Snapshot s;   // all zero
    const std::string line = ProgressReporter::formatLine(s);
    EXPECT_EQ(line, "sweep 0/0 (0.0%) 0.0 runs/s 0.00 Minst/s");
}

TEST(ProgressFormat, LaneWorkAppended)
{
    Snapshot s;
    s.completed = 2;
    s.total = 4;
    s.elapsedSeconds = 2.0;
    s.laneWork = {"int_sort x reuse", "", "fp_fir x baseline"};
    const std::string line = ProgressReporter::formatLine(s);
    EXPECT_NE(line.find(" | int_sort x reuse, fp_fir x baseline"),
              std::string::npos)
        << line;
}

/**
 * One sweep's worth of progress calls on this thread, with the
 * reporter built in `slot`: every call places its reporter at the same
 * address, as a sweep's stack-allocated reporter is in consecutive
 * sweeps from one frame.
 */
void
reportOneSweep(std::optional<ProgressReporter> &slot)
{
    slot.emplace(2, true);
    slot->beginRun(0, "int_crc x baseline");
    slot->endRun(0, 1000);
    slot->beginRun(1, "int_crc x reuse");
    slot->endRun(1, 1000);
    slot->finish();
    slot.reset();
}

// A lane slot kept in the thread and keyed on the reporter's address
// made the second reporter index the first one's lane in its own empty
// lane list (a crash, or a libstdc++ assertion failure).
TEST(ProgressReporter, ReportersBuiltInTurnKeepTheirOwnLanes)
{
    std::optional<ProgressReporter> slot;
    reportOneSweep(slot);
    reportOneSweep(slot);
}

} // namespace
