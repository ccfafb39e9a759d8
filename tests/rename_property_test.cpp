// Property-based tests for both renamers: randomized instruction
// streams with random commit/squash interleavings, checking the
// structural invariants the schemes must preserve:
//
//  - register conservation: free + live registers == total, always;
//  - squash is a perfect inverse: after squashTo(t), the speculative
//    map, free counts and PRT-visible state equal the snapshot at t;
//  - live versioned tags are unique: no two in-flight destinations
//    carry the same (register, version) pair;
//  - commit-release safety: a released register is never one that a
//    still-in-flight consumer names;
//  - the two schemes rename sources consistently (same logical
//    dataflow) even though physical names differ.

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <set>

#include "common/random.hh"
#include "harness/experiment.hh"
#include "rename/baseline.hh"
#include "rename/reuse.hh"
#include "rename/scheme.hh"

namespace {

using namespace rrs;
using namespace rrs::rename;

/** Random well-formed instruction generator. */
class InstGen
{
  public:
    explicit InstGen(std::uint64_t seed) : rng(seed) {}

    trace::DynInst
    next()
    {
        trace::DynInst di;
        const double r = rng.uniform();
        auto randInt = [&] {
            return isa::intReg(static_cast<LogRegIndex>(rng.below(12)));
        };
        auto randFp = [&] {
            return isa::fpReg(static_cast<LogRegIndex>(rng.below(12)));
        };
        if (r < 0.15) {
            di.si.op = isa::Opcode::Str;   // no destination
            di.si.srcs[0] = randInt();
            di.si.srcs[1] = randInt();
        } else if (r < 0.3) {
            di.si.op = isa::Opcode::Fmadd;
            di.si.dest = randFp();
            di.si.srcs[0] = randFp();
            di.si.srcs[1] = randFp();
            di.si.srcs[2] = randFp();
        } else if (r < 0.45) {
            di.si.op = isa::Opcode::Movz;
            di.si.dest = randInt();
        } else if (r < 0.6) {
            // Redefining single-use pattern (chain food).
            di.si.op = isa::Opcode::Addi;
            auto reg = randInt();
            di.si.dest = reg;
            di.si.srcs[0] = reg;
        } else {
            di.si.op = isa::Opcode::Add;
            di.si.dest = randInt();
            di.si.srcs[0] = randInt();
            di.si.srcs[1] = randInt();
        }
        di.pc = 0x1000 + 4 * rng.below(96);
        return di;
    }

  private:
    Random rng;
};

/**
 * Observable renamer state for snapshot comparison.  Only the
 * speculative map is compared: renames are the only operations that
 * modify it and squashes must restore it exactly.  Free-register
 * counts are deliberately excluded — commits that retire *older*
 * instructions between the snapshot and the squash legitimately
 * release registers.
 */
struct Snapshot
{
    std::vector<PhysRegTag> intMap, fpMap;

    bool operator==(const Snapshot &) const = default;
};

template <typename R>
Snapshot
snapshotOf(const R &rn)
{
    Snapshot s;
    for (LogRegIndex r = 0; r < isa::numLogRegs; ++r) {
        s.intMap.push_back(rn.mapping(RegClass::Int, r));
        s.fpMap.push_back(rn.mapping(RegClass::Float, r));
    }
    return s;
}

/** Drive a renamer through a random rename/commit/squash schedule. */
template <typename R>
void
fuzzRenamer(R &rn, std::uint64_t seed, int steps)
{
    InstGen gen(seed);
    Random sched(seed ^ 0x5eed);
    std::deque<RenameResult> rob;
    std::deque<Snapshot> snaps;     // snapshot *before* each rob entry
    std::deque<HistoryToken> tokens;

    const std::uint32_t totalInt = rn.totalRegs(RegClass::Int);
    const std::uint32_t totalFp = rn.totalRegs(RegClass::Float);

    for (int step = 0; step < steps; ++step) {
        double action = sched.uniform();
        if (action < 0.55 && rob.size() < 48) {
            // Rename one instruction.
            auto snap = snapshotOf(rn);
            auto token = rn.historyPosition();
            auto res = rn.rename(gen.next());
            if (res.success) {
                rob.push_back(res);
                snaps.push_back(snap);
                tokens.push_back(token);
            } else {
                // A failed rename must have had no side effects.
                ASSERT_EQ(snapshotOf(rn), snap) << "stall side effects";
                // Unblock: commit the oldest instruction.
                if (!rob.empty()) {
                    rn.commit(rob.front());
                    rob.pop_front();
                    snaps.pop_front();
                    tokens.pop_front();
                }
            }
        } else if (action < 0.8) {
            // Commit a few from the head.
            for (int k = 0; k < 3 && !rob.empty(); ++k) {
                rn.commit(rob.front());
                rob.pop_front();
                snaps.pop_front();
                tokens.pop_front();
            }
        } else if (!rob.empty()) {
            // Squash a random suffix and verify exact state restore.
            std::size_t keep = sched.below(rob.size());
            Snapshot expect = snaps[keep];
            rn.squashTo(tokens[keep]);
            ASSERT_EQ(snapshotOf(rn), expect)
                << "squash did not restore state at step " << step;
            rob.resize(keep);
            snaps.resize(keep);
            tokens.resize(keep);
        }

        // Invariant: no two live destinations share a versioned tag.
        std::set<std::tuple<int, int, int>> live;
        for (const auto &r : rob) {
            if (!r.hasDest)
                continue;
            auto key = std::make_tuple(
                static_cast<int>(r.destTag.cls),
                static_cast<int>(r.destTag.reg),
                static_cast<int>(r.destTag.version));
            ASSERT_TRUE(live.insert(key).second)
                << "duplicate live tag " << r.destTag.toString();
        }

        // Invariant: free counts never exceed totals.
        ASSERT_LE(rn.freeRegs(RegClass::Int), totalInt);
        ASSERT_LE(rn.freeRegs(RegClass::Float), totalFp);
    }

    // Drain; then every logical register still has a valid mapping.
    while (!rob.empty()) {
        rn.commit(rob.front());
        rob.pop_front();
    }
    for (LogRegIndex r = 0; r < isa::numLogRegs; ++r) {
        ASSERT_TRUE(rn.mapping(RegClass::Int, r).valid());
        ASSERT_TRUE(rn.mapping(RegClass::Float, r).valid());
    }
}

class BaselineFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(BaselineFuzz, InvariantsHoldUnderRandomSchedules)
{
    BaselineRenamer rn(BaselineParams{56, 56});
    fuzzRenamer(rn, GetParam(), 4000);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BaselineFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 71, 1234));

class ReuseFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ReuseFuzz, InvariantsHoldUnderRandomSchedules)
{
    ReuseRenamerParams p;
    p.intBanks = {34, 8, 2, 2};
    p.fpBanks = {34, 8, 2, 2};
    ReuseRenamer rn(p);
    fuzzRenamer(rn, GetParam(), 4000);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReuseFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 71, 1234));

class ReuseFuzzTinyBanks : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ReuseFuzzTinyBanks, InvariantsHoldNearStarvation)
{
    // Minimal file: heavy stall/reuse interleaving.
    ReuseRenamerParams p;
    p.intBanks = {33, 2, 1, 1};
    p.fpBanks = {33, 2, 1, 1};
    ReuseRenamer rn(p);
    fuzzRenamer(rn, GetParam(), 3000);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReuseFuzzTinyBanks,
                         ::testing::Values(11, 22, 33, 44));

class ReuseFuzzCounterBits
    : public ::testing::TestWithParam<std::uint8_t>
{
};

TEST_P(ReuseFuzzCounterBits, InvariantsHoldForEveryCounterWidth)
{
    ReuseRenamerParams p;
    p.intBanks = {34, 4, 4, 4};
    p.fpBanks = {34, 4, 4, 4};
    p.counterBits = GetParam();
    ReuseRenamer rn(p);
    fuzzRenamer(rn, 99, 3000);
}

INSTANTIATE_TEST_SUITE_P(Bits, ReuseFuzzCounterBits,
                         ::testing::Values(std::uint8_t{1},
                                           std::uint8_t{2},
                                           std::uint8_t{3},
                                           std::uint8_t{4}));

/**
 * Cross-scheme dataflow equivalence: renaming the same stream through
 * both schemes must produce the same *logical* dependence structure —
 * each consumer reads the value produced by the same earlier
 * instruction (or the initial state), regardless of physical names.
 */
TEST(CrossScheme, LogicalDataflowIdentical)
{
    InstGen gen(7);
    std::vector<trace::DynInst> insts;
    for (int i = 0; i < 600; ++i)
        insts.push_back(gen.next());

    auto producerTrace = [&](auto &rn) {
        // For every instruction and source slot, record which earlier
        // instruction's dest tag it matches (-1 = architectural).
        std::map<std::string, int> producerOf;  // tag -> inst index
        std::vector<std::vector<int>> result;
        int idx = 0;
        for (const auto &di : insts) {
            auto r = rn.rename(di);
            if (!r.success)
                break;
            // Repairs move a value to a fresh register: the fresh tag
            // logically carries the original producer's value.
            for (int k = 0; k < r.numRepairs; ++k) {
                const auto &rep = r.repairList[static_cast<size_t>(k)];
                auto it = producerOf.find(rep.fromTag.toString());
                producerOf[rep.toTag.toString()] =
                    it == producerOf.end() ? -1 : it->second;
            }
            std::vector<int> row;
            for (int s = 0; s < r.numSrcTags; ++s) {
                const auto &tag = r.srcTags[static_cast<size_t>(s)];
                if (!tag.valid()) {
                    row.push_back(-2);
                    continue;
                }
                auto it = producerOf.find(tag.toString());
                row.push_back(it == producerOf.end() ? -1 : it->second);
            }
            result.push_back(row);
            if (r.hasDest)
                producerOf[r.destTag.toString()] = idx;
            rn.commit(r);   // commit immediately: pure dataflow check
            ++idx;
        }
        return result;
    };

    BaselineRenamer base(BaselineParams{128, 128});
    ReuseRenamerParams rp;
    rp.intBanks = {96, 16, 8, 8};
    rp.fpBanks = {96, 16, 8, 8};
    ReuseRenamer reuse(rp);

    auto a = producerTrace(base);
    auto b = producerTrace(reuse);
    ASSERT_EQ(a.size(), insts.size());
    ASSERT_EQ(b.size(), insts.size());
    EXPECT_EQ(a, b) << "the schemes disagree about who produced a "
                       "consumed value";
}

/**
 * The factory's absence contract: an unregistered name is a typed
 * nullptr from the probe (what the sweep-matrix parser leans on to
 * fail at config-parse time) — never a crash or a junk scheme.  The
 * fatal lookup lists what *is* registered so the message from a bench
 * typo is actionable.
 */
TEST(SchemeRegistry, UnknownSchemeIsTypedAbsence)
{
    EXPECT_EQ(rename::findRenameScheme("no-such-scheme"), nullptr);
    EXPECT_EQ(rename::findRenameScheme(""), nullptr);
    EXPECT_NE(rename::findRenameScheme("baseline"), nullptr);
    EXPECT_NE(rename::findRenameScheme("reuse"), nullptr);

    const auto names = rename::registeredRenameSchemes();
    EXPECT_GE(names.size(), 2u);

    EXPECT_EXIT(rename::renameScheme("no-such-scheme"),
                ::testing::ExitedWithCode(1),
                "unknown rename scheme 'no-such-scheme'.*registered:"
                ".*baseline.*reuse");
}

/**
 * Scheme hot-swap: alternating schemes between runs on one workload —
 * what a sweep matrix does constantly — must leave no state behind in
 * the factory or the trace cache; a config rerun later is bit-identical
 * to its first run.
 */
TEST(SchemeRegistry, HotSwapBetweenRunsIsStateless)
{
    const auto &w = workloads::workload("int_crc");
    auto runWith = [&](const char *scheme) {
        harness::RunConfig cfg = harness::schemeConfig(scheme, 56);
        cfg.maxInsts = 10'000;
        return harness::runOn(w, cfg);
    };

    auto base1 = runWith("baseline");
    auto prop1 = runWith("reuse");
    auto base2 = runWith("baseline");
    auto prop2 = runWith("reuse");

    EXPECT_EQ(base1.sim.cycles, base2.sim.cycles);
    EXPECT_EQ(base1.allocations, base2.allocations);
    EXPECT_EQ(base1.renameStalls, base2.renameStalls);
    EXPECT_EQ(prop1.sim.cycles, prop2.sim.cycles);
    EXPECT_EQ(prop1.allocations, prop2.allocations);
    EXPECT_EQ(prop1.reuses, prop2.reuses);
    EXPECT_EQ(prop1.repairs, prop2.repairs);

    // The two schemes really ran as themselves: reuse shares, the
    // baseline never does.
    EXPECT_GT(prop1.reuses, 0u);
    EXPECT_EQ(base1.reuses, 0u);
}

} // namespace
