// Tests for the O3PipeView pipeline event tracer: a golden trace of a
// tiny straight-line program, structural invariants of the format on
// larger runs, the squash marking on wrong-path work, and the sweep's
// RRS_PIPETRACE path (one file per run, the same bytes at any lane
// count).

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "core/o3core.hh"
#include "harness/sweep.hh"
#include "isa/assembler.hh"
#include "obs/pipetrace.hh"
#include "rename/baseline.hh"
#include "workloads/workloads.hh"

namespace {

using namespace rrs;

// Straight-line, no branches, no memory: the schedule is fully
// deterministic, so the emitted trace is byte-stable.
const char *tinyProgram = R"(
    movz x1, #5
    add x2, x1, x1
    muli x3, x2, #7
    sub x4, x3, x1
    halt
)";

const char *branchyProgram = R"(
    movz x1, #300
    movz x5, #2654435761
    movz x6, #0
loop:
    muli x5, x5, #6364136223846793005
    addi x5, x5, #1442695040888963407
    lsri x7, x5, #61
    andi x8, x7, #1
    beq x8, xzr, skip
    addi x6, x6, #1
skip:
    subi x1, x1, #1
    bne x1, xzr, loop
    halt
)";

struct TracedRun
{
    std::string trace;
    core::SimResult result;
};

TracedRun
runTraced(const char *src)
{
    isa::Program p = isa::assemble(src);
    emu::Emulator e(p);
    trace::ReplayStream stream(workloads::capture(e, "prog", 1'000'000));
    mem::MemSystem mem{mem::MemSystemParams{}};
    bpred::BranchPredictor bp{bpred::BPredParams{}};
    rename::BaselineRenamer rn(rename::BaselineParams{128, 128});
    std::ostringstream os;
    obs::PipeTracer tracer(os);
    core::O3Core core(core::CoreParams{}, rn, mem, bp, stream);
    core.addObserver(tracer);
    TracedRun out;
    out.result = core.run();
    out.trace = os.str();
    return out;
}

std::vector<std::string>
lines(const std::string &text)
{
    std::vector<std::string> out;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line))
        out.push_back(line);
    return out;
}

// The full expected trace of tinyProgram under the default Table I
// core: a byte-for-byte golden.  The first fetch lands at cycle 433
// (cold L1I/L2 miss to DRAM); decode shares fetch's tick because the
// core models the front end as one pipe; the muli's two-cycle FU and
// the dependent sub's late issue are visible in the issue/complete
// columns; halt is a Nop-class inst, issued and completed at rename.
const char *goldenTinyTrace =
    R"(O3PipeView:fetch:217000:0x00010000:0:0:movz x1, #5
O3PipeView:decode:217000
O3PipeView:rename:217500
O3PipeView:dispatch:217500
O3PipeView:issue:218000
O3PipeView:complete:218500
O3PipeView:retire:219000:store:0
O3PipeView:fetch:217000:0x00010004:0:1:add x2, x1, x1
O3PipeView:decode:217000
O3PipeView:rename:217500
O3PipeView:dispatch:217500
O3PipeView:issue:218500
O3PipeView:complete:219000
O3PipeView:retire:219500:store:0
O3PipeView:fetch:217000:0x00010008:0:2:muli x3, x2, #7
O3PipeView:decode:217000
O3PipeView:rename:217500
O3PipeView:dispatch:217500
O3PipeView:issue:219000
O3PipeView:complete:221000
O3PipeView:retire:221500:store:0
O3PipeView:fetch:217500:0x0001000c:0:3:sub x4, x3, x1
O3PipeView:decode:217500
O3PipeView:rename:218000
O3PipeView:dispatch:218000
O3PipeView:issue:221000
O3PipeView:complete:221500
O3PipeView:retire:222000:store:0
O3PipeView:fetch:217500:0x00010010:0:4:halt
O3PipeView:decode:217500
O3PipeView:rename:218000
O3PipeView:dispatch:218000
O3PipeView:issue:218000
O3PipeView:complete:218000
O3PipeView:retire:222000:store:0
)";

TEST(PipeTrace, GoldenTinyProgram)
{
    TracedRun run = runTraced(tinyProgram);
    EXPECT_EQ(run.trace, goldenTinyTrace);
}

TEST(PipeTrace, StructureAndTickMonotonicity)
{
    TracedRun run = runTraced(branchyProgram);
    const auto ls = lines(run.trace);
    ASSERT_FALSE(ls.empty());

    const std::regex fetchRe(
        "O3PipeView:fetch:[0-9]+:0x[0-9a-f]+:0:[0-9]+:.*");
    const std::regex stageRe(
        "O3PipeView:(decode|rename|dispatch|issue|complete):[0-9]+");
    const std::regex retireRe("O3PipeView:retire:[0-9]+:store:[0-9]+");

    std::uint64_t fetches = 0, retires = 0, squashes = 0;
    std::vector<std::uint64_t> ticks;  // current record's stage ticks
    for (const auto &l : ls) {
        if (l.rfind("O3PipeView:fetch:", 0) == 0) {
            EXPECT_TRUE(std::regex_match(l, fetchRe)) << l;
            ++fetches;
            ticks.clear();
            ticks.push_back(std::stoull(l.substr(17)));
        } else if (l.rfind("O3PipeView:retire:", 0) == 0) {
            EXPECT_TRUE(std::regex_match(l, retireRe)) << l;
            std::uint64_t t = std::stoull(l.substr(18));
            if (t == 0)
                ++squashes;
            else
                ++retires;
            ticks.push_back(t);
        } else {
            EXPECT_TRUE(std::regex_match(l, stageRe)) << l;
            ticks.push_back(
                std::stoull(l.substr(l.find_last_of(':') + 1)));
        }
        // Within one record, ticks of reached stages never decrease,
        // and every tick is a whole number of 500-tick cycles.
        std::uint64_t prev = 0;
        for (std::uint64_t t : ticks) {
            EXPECT_EQ(t % obs::PipeTracer::defaultTicksPerCycle, 0u);
            if (t != 0) {
                EXPECT_GE(t, prev);
                prev = t;
            }
        }
    }

    // Every record is exactly 7 lines.
    EXPECT_EQ(ls.size(), fetches * 7);
    // Every retired instruction the core counted is in the trace, and
    // the wrong-path work shows up as squashed records.
    EXPECT_EQ(retires, run.result.committedInsts);
    EXPECT_GT(squashes, 0u);
    EXPECT_EQ(fetches, retires + squashes);
}

TEST(PipeTrace, BranchyTraceIsPinned)
{
    // The byte golden above has no squashes; this pins a trace that
    // does (wrong-path records retire at tick 0) by length, record
    // counts and FNV-1a digest.
    TracedRun run = runTraced(branchyProgram);
    std::uint64_t squashes = 0;
    for (const auto &l : lines(run.trace)) {
        if (l.rfind("O3PipeView:retire:0:", 0) == 0)
            ++squashes;
    }
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : run.trace) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    EXPECT_EQ(run.result.committedInsts, 2254u);
    EXPECT_EQ(squashes, 4741u);
    EXPECT_EQ(run.trace.size(), 1555613u);
    EXPECT_EQ(h, 0xab22c3a422a044f5ULL);
}

TEST(PipeTrace, RetiredStagesAllReached)
{
    // A retired (non-squashed) instruction must have reached every
    // stage: no zero ticks anywhere in its record.
    TracedRun run = runTraced(tinyProgram);
    const auto ls = lines(run.trace);
    for (std::size_t i = 0; i + 6 < ls.size(); i += 7) {
        std::uint64_t retireTick = std::stoull(ls[i + 6].substr(18));
        if (retireTick == 0)
            continue;
        for (std::size_t j = 0; j < 6; ++j) {
            std::uint64_t t = std::stoull(
                ls[i + j].substr(ls[i + j].find(':', 11) + 1));
            EXPECT_GT(t, 0u) << ls[i + j];
        }
    }
}

/** Every file in `dir`, by name, with its bytes. */
std::map<std::string, std::string>
readDir(const std::string &dir)
{
    std::map<std::string, std::string> files;
    for (const auto &e : std::filesystem::directory_iterator(dir)) {
        std::ifstream is(e.path(), std::ios::binary);
        std::ostringstream buf;
        buf << is.rdbuf();
        files[e.path().filename().string()] = buf.str();
    }
    return files;
}

/**
 * Run a 4-item sweep on `lanes` lanes with RRS_PIPETRACE set to
 * `prefix` (unset when empty) while the runner is built, into an empty
 * `dir`, and return what the sweep left there.
 */
std::map<std::string, std::string>
sweepWithPipeTrace(const std::string &dir, const std::string &prefix,
                   unsigned lanes)
{
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::vector<harness::SweepItem> items;
    for (const char *name : {"int_crc", "fp_fir"}) {
        for (const char *scheme : {"baseline", "reuse"}) {
            harness::RunConfig cfg = harness::schemeConfig(scheme, 64);
            cfg.maxInsts = 2000;
            items.push_back(
                harness::sweepItem(workloads::workload(name), cfg));
        }
    }
    if (prefix.empty())
        unsetenv("RRS_PIPETRACE");
    else
        setenv("RRS_PIPETRACE", prefix.c_str(), 1);
    harness::SweepRunner runner(lanes);
    unsetenv("RRS_PIPETRACE");
    runner.run(items);
    return readDir(dir);
}

TEST(PipeTraceSweep, OneFilePerRunIdenticalAcrossLaneCounts)
{
    const char *saved = std::getenv("RRS_PIPETRACE");
    const std::string savedValue = saved ? saved : "";
    const std::string dir = testing::TempDir() + "pipetrace_sweep";

    const auto one = sweepWithPipeTrace(dir, dir + "/p", 1);
    const auto four = sweepWithPipeTrace(dir, dir + "/p", 4);
    std::vector<std::string> names;
    for (const auto &[name, bytes] : one) {
        names.push_back(name);
        EXPECT_EQ(bytes.rfind("O3PipeView:fetch:", 0), 0u) << name;
    }
    EXPECT_EQ(names, (std::vector<std::string>{"p_run0.trace",
                                               "p_run1.trace",
                                               "p_run2.trace",
                                               "p_run3.trace"}));
    EXPECT_TRUE(one == four) << "1 vs 4 lanes";

    // Unset when the runner is built: no trace anywhere.
    EXPECT_TRUE(sweepWithPipeTrace(dir, "", 4).empty());

    if (saved)
        setenv("RRS_PIPETRACE", savedValue.c_str(), 1);
}

} // namespace
