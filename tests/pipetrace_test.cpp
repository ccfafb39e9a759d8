// Tests for the O3PipeView pipeline event tracer: a golden trace of a
// tiny straight-line program, structural invariants of the format on
// larger runs, and the squash marking on wrong-path work.

#include <gtest/gtest.h>

#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "core/o3core.hh"
#include "emu/emulator.hh"
#include "isa/assembler.hh"
#include "obs/pipetrace.hh"
#include "rename/baseline.hh"

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
    emu::Emulator stream(p, "prog");
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

} // namespace
