// Cross-scheme conformance kit: every rename scheme in the registry —
// including ones registered by future PRs — inherits this suite by
// construction, because the parameterization enumerates the registry
// itself.  The contract checked per scheme:
//
//  - registry round trip: the scheme resolves by name, advertises its
//    parameter keys truthfully, and rejects unknown keys;
//  - equal-area configurations build working renamers at every paper
//    sweep point, and the area descriptor prices to a positive area
//    no larger than the baseline budget it was solved against;
//  - freelist conservation and exact squash-undo under a randomized
//    rename/commit/squash schedule, driven purely through the Renamer
//    protocol (mapping() snapshots — no concrete types);
//  - the RRS_AUDIT invariant auditor stays clean at every-commit
//    granularity through the harness (auditable schemes);
//  - harness counters are self-consistent and sweep results are
//    bit-identical across thread counts and across repeat runs.

#include <gtest/gtest.h>

#include <deque>

#include "area/area.hh"
#include "common/random.hh"
#include "harness/sweepmatrix.hh"
#include "rename/scheme.hh"

namespace {

using namespace rrs;
using namespace rrs::rename;

/** Random well-formed instruction generator (rename-visible fields). */
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

/** Full speculative-map snapshot via the scheme-generic mapping(). */
std::vector<PhysRegTag>
snapshotOf(const Renamer &rn)
{
    std::vector<PhysRegTag> s;
    for (LogRegIndex r = 0; r < isa::numLogRegs; ++r) {
        s.push_back(rn.mapping(RegClass::Int, r));
        s.push_back(rn.mapping(RegClass::Float, r));
    }
    return s;
}

/** The scheme's renamer at the tuned equal-area point for `regs`. */
std::unique_ptr<Renamer>
makeAt(const std::string &name, std::uint32_t regs)
{
    const RenameScheme &scheme = renameScheme(name);
    SchemeParams params;
    scheme.configureEqualArea(params, regs);
    return scheme.makeRenamer(params);
}

class SchemeConformance : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SchemeConformance, RegistryRoundTrip)
{
    const RenameScheme *scheme = findRenameScheme(GetParam());
    ASSERT_NE(scheme, nullptr);
    EXPECT_EQ(scheme->name(), GetParam());

    // Every advertised key must be settable; an invented one must be
    // a typed rejection (the matrix parser's diagnostic path).
    SchemeParams params;
    for (const auto &range : scheme->paramRanges())
        EXPECT_TRUE(scheme->setParam(params, range.key, 1.0)) << range.key;
    EXPECT_FALSE(scheme->setParam(params, "no_such_parameter", 1.0));
}

TEST_P(SchemeConformance, EqualAreaConfigsBuildAndPrice)
{
    const RenameScheme &scheme = renameScheme(GetParam());
    const area::AreaModel model;
    for (std::uint32_t regs : {48u, 56u, 64u, 72u, 80u, 96u, 112u}) {
        SchemeParams params;
        scheme.configureEqualArea(params, regs);
        auto rn = scheme.makeRenamer(params);
        ASSERT_NE(rn, nullptr);
        EXPECT_GT(rn->totalRegs(RegClass::Int), 0u);
        EXPECT_GT(rn->totalRegs(RegClass::Float), 0u);
        EXPECT_GE(rn->maxVersions(), 1u);

        const SchemeAreaDescriptor d = scheme.areaDescriptor(params);
        const double a = model.schemeArea(
            d.intBanks, d.fpBanks, 64, 128, d.prtCounterBits, 40,
            d.iqExtraTagBits, d.predictorEntries, d.predictorBits);
        EXPECT_GT(a, 0.0);
        // The equal-area guarantee: the *register files* fit within
        // the baseline files they were solved against (64b int + 128b
        // fp); the PRT/IQ/predictor extras ride on top and must stay
        // the paper's "well under 1%" of the files.
        const double files = model.schemeArea(d.intBanks, d.fpBanks,
                                              64, 128, 0, 40, 0, 0, 0);
        const double budget = model.regFileArea(regs, 64) +
                              model.regFileArea(regs, 128);
        EXPECT_LE(files, budget + 1e-9)
            << GetParam() << " register files overrun the budget at "
            << regs;
        EXPECT_LE(a - files, budget * 0.02)
            << GetParam() << " extra structures exceed 2% at " << regs;
    }
}

TEST_P(SchemeConformance, FreelistConservationAndExactSquashUndo)
{
    auto rn = makeAt(GetParam(), 64);
    InstGen gen(2024);
    Random sched(2024 ^ 0x5eed);
    std::deque<RenameResult> rob;
    std::deque<std::vector<PhysRegTag>> snaps;
    std::deque<HistoryToken> tokens;

    const std::uint32_t totalInt = rn->totalRegs(RegClass::Int);
    const std::uint32_t totalFp = rn->totalRegs(RegClass::Float);

    for (int step = 0; step < 4000; ++step) {
        double action = sched.uniform();
        if (action < 0.55 && rob.size() < 48) {
            auto snap = snapshotOf(*rn);
            auto token = rn->historyPosition();
            auto res = rn->rename(gen.next());
            if (res.success) {
                rob.push_back(res);
                snaps.push_back(std::move(snap));
                tokens.push_back(token);
            } else {
                // A failed rename must have had no side effects.
                ASSERT_EQ(snapshotOf(*rn), snap) << "stall side effects";
                if (!rob.empty()) {
                    rn->commit(rob.front());
                    rob.pop_front();
                    snaps.pop_front();
                    tokens.pop_front();
                }
            }
        } else if (action < 0.8) {
            for (int k = 0; k < 3 && !rob.empty(); ++k) {
                rn->commit(rob.front());
                rob.pop_front();
                snaps.pop_front();
                tokens.pop_front();
            }
        } else if (!rob.empty()) {
            // Squash a random suffix: the speculative map must return
            // to its snapshot exactly.
            std::size_t keep = sched.below(rob.size());
            auto expect = snaps[keep];
            rn->squashTo(tokens[keep]);
            ASSERT_EQ(snapshotOf(*rn), expect)
                << "squash did not restore state at step " << step;
            rob.resize(keep);
            snaps.resize(keep);
            tokens.resize(keep);
        }

        // Conservation: schemes may never mint registers.
        ASSERT_LE(rn->freeRegs(RegClass::Int), totalInt);
        ASSERT_LE(rn->freeRegs(RegClass::Float), totalFp);
    }

    // Drain, then a squash to the current (empty) history position
    // must be a no-op; conservation still holds.
    while (!rob.empty()) {
        rn->commit(rob.front());
        rob.pop_front();
    }
    auto settled = snapshotOf(*rn);
    rn->squashTo(rn->historyPosition());
    EXPECT_EQ(snapshotOf(*rn), settled);
    EXPECT_LE(rn->freeRegs(RegClass::Int), totalInt);
    EXPECT_LE(rn->freeRegs(RegClass::Float), totalFp);
    for (LogRegIndex r = 0; r < isa::numLogRegs; ++r) {
        EXPECT_TRUE(rn->mapping(RegClass::Int, r).valid());
        EXPECT_TRUE(rn->mapping(RegClass::Float, r).valid());
    }
}

TEST_P(SchemeConformance, AuditCleanAtEveryCommit)
{
    const auto &w = workloads::workload("int_hash");
    harness::RunConfig cfg = harness::schemeConfig(GetParam(), 56);
    cfg.maxInsts = 15'000;
    cfg.obs.auditInterval = 1;
    auto out = harness::runOn(w, cfg);
    EXPECT_GT(out.auditsRun, 0u);
    EXPECT_EQ(out.auditViolations, 0u);
    EXPECT_GT(out.sim.committedInsts, 0u);
}

TEST_P(SchemeConformance, CountersAreSelfConsistent)
{
    const auto &w = workloads::workload("fp_fir");
    harness::RunConfig cfg = harness::schemeConfig(GetParam(), 64);
    cfg.maxInsts = 15'000;
    auto out = harness::runOn(w, cfg);
    EXPECT_GT(out.allocations, 0u);
    EXPECT_GE(out.reuses, 0u);
    EXPECT_GE(out.repairs, 0u);
    EXPECT_GT(out.historyPeak, 0u);
    EXPECT_GE(out.fig12.total(), 0u);
}

/** The scheme's two-workload, two-size reference sweep. */
std::vector<harness::SweepItem>
referenceSweep(const std::string &scheme)
{
    harness::SweepMatrix m;
    m.schemes.push_back(harness::SchemeSpec{scheme, scheme, {}});
    m.rfSizes = {56, 96};
    m.cap = 20'000;
    m.sampleSharing = true;
    // Static: SweepItem keeps pointers into this list.
    static const std::vector<workloads::Workload> ws = {
        workloads::workload("int_crc"), workloads::workload("fp_fir")};
    return harness::expandSweepMatrix(m, ws, 0);
}

void
expectOutcomeEq(const harness::Outcome &a, const harness::Outcome &b,
                std::size_t idx)
{
    SCOPED_TRACE("sweep entry " + std::to_string(idx));
    EXPECT_EQ(a.sim.cycles, b.sim.cycles);
    EXPECT_EQ(a.sim.committedInsts, b.sim.committedInsts);
    EXPECT_EQ(a.allocations, b.allocations);
    EXPECT_EQ(a.reuses, b.reuses);
    EXPECT_EQ(a.repairs, b.repairs);
    EXPECT_EQ(a.renameStalls, b.renameStalls);
    EXPECT_EQ(a.fig12.total(), b.fig12.total());
    EXPECT_EQ(a.occupancy, b.occupancy);
}

TEST_P(SchemeConformance, BitIdenticalAcrossThreadCounts)
{
    auto items = referenceSweep(GetParam());
    harness::SweepRunner one(1);
    auto ref = one.outcomes(items);
    ASSERT_EQ(ref.size(), items.size());
    for (unsigned threads : {2u, 4u}) {
        harness::SweepRunner runner(threads);
        auto got = runner.outcomes(items);
        ASSERT_EQ(got.size(), ref.size());
        for (std::size_t i = 0; i < ref.size(); ++i) {
            SCOPED_TRACE("threads=" + std::to_string(threads));
            expectOutcomeEq(ref[i], got[i], i);
        }
    }
}

TEST_P(SchemeConformance, RepeatRunsAreIdentical)
{
    auto items = referenceSweep(GetParam());
    harness::SweepRunner runner(4);
    auto first = runner.outcomes(items);
    auto second = runner.outcomes(items);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i)
        expectOutcomeEq(first[i], second[i], i);
}

INSTANTIATE_TEST_SUITE_P(
    Registry, SchemeConformance,
    ::testing::ValuesIn(registeredRenameSchemes()),
    [](const auto &info) { return info.param; });

} // namespace
