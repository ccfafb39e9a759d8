// Tests for the rename-stage invariant auditor (rename/audit.hh):
// clean audits on healthy renamers, detection of every seeded fault
// class (each named by its violated invariant), the allocFromBank
// exhaustion/fallback behaviour, squash-undo regressions for the
// Fig. 8 repair path, history-footprint tracking, a randomized
// rename/commit/squash interleaving over every workload's trace with
// the auditor at every commit and squash, and the harness audit hooks.

#include <gtest/gtest.h>

#include <deque>

#include "common/random.hh"
#include "harness/experiment.hh"
#include "harness/tracecache.hh"
#include "rename/audit.hh"
#include "rename/baseline.hh"
#include "rename/reuse.hh"
#include "trace/recorded.hh"
#include "workloads/workloads.hh"

namespace {

using namespace rrs;
using namespace rrs::rename;

trace::DynInst
makeInst(isa::Opcode op, isa::RegId dest, isa::RegId s0 = {},
         isa::RegId s1 = {}, Addr pc = 0x1000)
{
    trace::DynInst di;
    di.si.op = op;
    di.si.dest = dest;
    di.si.srcs[0] = s0;
    di.si.srcs[1] = s1;
    di.pc = pc;
    return di;
}

trace::DynInst
addInst(int d, int a, int b, Addr pc = 0x1000)
{
    return makeInst(isa::Opcode::Add,
                    isa::intReg(static_cast<LogRegIndex>(d)),
                    isa::intReg(static_cast<LogRegIndex>(a)),
                    isa::intReg(static_cast<LogRegIndex>(b)), pc);
}

trace::DynInst
movzInst(int d, Addr pc = 0x2000)
{
    return makeInst(isa::Opcode::Movz,
                    isa::intReg(static_cast<LogRegIndex>(d)), {}, {}, pc);
}

ReuseRenamerParams
bigShadowParams()
{
    ReuseRenamerParams p;
    p.intBanks = {32, 0, 0, 16};
    p.fpBanks = {32, 0, 0, 16};
    return p;
}

void
expectClean(RenameAuditor &auditor, const Renamer &rn, const char *why)
{
    AuditReport report = auditor.audit(rn);
    EXPECT_TRUE(report.clean()) << why << ":\n" << report.toString();
}

TEST(RenameAuditor, CleanAfterConstruction)
{
    RenameAuditor auditor;
    ReuseRenamer reuse(bigShadowParams());
    BaselineRenamer base(BaselineParams{64, 64});
    expectClean(auditor, reuse, "fresh reuse renamer");
    expectClean(auditor, base, "fresh baseline renamer");
    EXPECT_EQ(auditor.auditCount(), 2u);
    EXPECT_EQ(auditor.violationCount(), 0u);
}

TEST(RenameAuditor, CleanAfterMixedActivity)
{
    RenameAuditor auditor;
    ReuseRenamer rn(bigShadowParams());
    auto &tp = rn.predictor();
    tp.trainOnShadowExhausted(tp.indexFor(0x4000));

    // Allocation, redefining reuse, non-redef reuse, a repair, commits
    // and a squash: every rename action class, audited after each.
    auto r1 = rn.rename(movzInst(1, 0x4000));
    expectClean(auditor, rn, "after alloc");
    auto r2 = rn.rename(addInst(1, 1, 3));
    expectClean(auditor, rn, "after redefining reuse");
    auto r3 = rn.rename(addInst(7, 1, 9));
    expectClean(auditor, rn, "after non-redef reuse");
    auto r4 = rn.rename(addInst(8, 1, 9),
                        [](const PhysRegTag &) { return true; });
    expectClean(auditor, rn, "after repair");
    rn.commit(r1);
    expectClean(auditor, rn, "after commit 1");
    rn.commit(r2);
    expectClean(auditor, rn, "after commit 2");
    rn.squashTo(r3.token);
    expectClean(auditor, rn, "after squash");
    (void)r4;
}

// ---- Fault injection: every seeded fault class must be caught, and
// ---- the report must name the violated invariant.

TEST(RenameAuditor, CatchesFlippedReadBit)
{
    RenameAuditor auditor;
    ReuseRenamer rn(bigShadowParams());
    ASSERT_TRUE(rn.injectFault(ReuseRenamer::InjectedFault::FlipReadBit));
    AuditReport report = auditor.audit(rn);
    EXPECT_FALSE(report.clean());
    EXPECT_TRUE(report.names(AuditInvariant::ReadBitUses))
        << report.toString();
    EXPECT_GT(auditor.violationCount(), 0u);
}

TEST(RenameAuditor, CatchesLeakedFreeRegister)
{
    RenameAuditor auditor;
    ReuseRenamer rn(bigShadowParams());
    ASSERT_TRUE(rn.injectFault(ReuseRenamer::InjectedFault::LeakFreeReg));
    AuditReport report = auditor.audit(rn);
    EXPECT_FALSE(report.clean());
    EXPECT_TRUE(report.names(AuditInvariant::FreeListPartition))
        << report.toString();
}

TEST(RenameAuditor, CatchesSkippedRefcountDrop)
{
    RenameAuditor auditor;
    ReuseRenamer rn(bigShadowParams());
    // Some real state first, so the stale count hides among live refs.
    auto r1 = rn.rename(addInst(1, 2, 3));
    rn.commit(r1);
    ASSERT_TRUE(rn.injectFault(ReuseRenamer::InjectedFault::SkipRefDrop));
    AuditReport report = auditor.audit(rn);
    EXPECT_FALSE(report.clean());
    EXPECT_TRUE(report.names(AuditInvariant::SpecRefCount))
        << report.toString();
}

TEST(RenameAuditor, CatchesDoubleFree)
{
    RenameAuditor auditor;
    ReuseRenamer rn(bigShadowParams());
    ASSERT_TRUE(rn.injectFault(ReuseRenamer::InjectedFault::DoubleFree));
    AuditReport report = auditor.audit(rn);
    EXPECT_FALSE(report.clean());
    EXPECT_TRUE(report.names(AuditInvariant::FreeListPartition))
        << report.toString();
}

#if GTEST_HAS_DEATH_TEST
TEST(RenameAuditorDeathTest, CheckPanicsWithStructuredReport)
{
    RenameAuditor auditor;
    ReuseRenamer rn(bigShadowParams());
    ASSERT_TRUE(rn.injectFault(ReuseRenamer::InjectedFault::DoubleFree));
    // The CI-facing entry names the trigger point and the invariant.
    EXPECT_DEATH(auditor.check(rn, "unit-test"),
                 "rename audit failed at unit-test.*freeListPartition");
}
#endif

// ---- allocFromBank: closest-first fallback in shadow-capacity order,
// ---- and graceful exhaustion.

TEST(ReuseRenamer, AllocFallbackWalksBanksClosestFirst)
{
    // One spare bank-0 register, then two in each shadow bank.  A cold
    // predictor wants bank 0, so allocations must drain bank 0, then
    // bank 1, then 2, then 3 — never skipping towards more shadow
    // cells than needed.
    ReuseRenamerParams p;
    p.intBanks = {33, 2, 2, 2};
    p.fpBanks = {33, 2, 2, 2};
    ReuseRenamer rn(p);

    const std::array<std::uint32_t, 7> expectBank = {0, 1, 1, 2, 2, 3, 3};
    for (std::size_t i = 0; i < expectBank.size(); ++i) {
        std::array<std::uint32_t, 4> before{};
        for (int b = 0; b < 4; ++b)
            before[static_cast<std::size_t>(b)] =
                rn.bankInUse(RegClass::Int, b);
        auto r = rn.rename(movzInst(static_cast<int>(1 + i % 8),
                                    0x3000 + 16 * static_cast<Addr>(i)));
        ASSERT_TRUE(r.success) << "allocation " << i;
        for (int b = 0; b < 4; ++b) {
            std::uint32_t grew =
                rn.bankInUse(RegClass::Int, b) -
                before[static_cast<std::size_t>(b)];
            EXPECT_EQ(grew,
                      b == static_cast<int>(
                               expectBank[static_cast<std::size_t>(i)])
                          ? 1u : 0u)
                << "allocation " << i << " bank " << b;
        }
    }
}

TEST(ReuseRenamer, ExhaustionStallsInsteadOfPanicking)
{
    ReuseRenamerParams p;
    p.intBanks = {33, 2, 2, 2};   // 7 free registers
    p.fpBanks = {33, 2, 2, 2};
    ReuseRenamer rn(p);
    RenameAuditor auditor;

    std::deque<RenameResult> inflight;
    // Distinct logical destinations so nothing is released early, and
    // distinct PCs so the cold predictor stays cold.
    for (int i = 0; i < 7; ++i) {
        auto r = rn.rename(movzInst(1 + i, 0x5000 + 16 * i));
        ASSERT_TRUE(r.success);
        inflight.push_back(r);
    }
    EXPECT_EQ(rn.freeRegs(RegClass::Int), 0u);

    // No free register and no reuse possible: a structural stall, not
    // a panic, and it changes nothing, so the core may retry it later.
    const HistoryToken pos0 = rn.historyPosition();
    auto r8 = rn.rename(movzInst(8, 0x6000));
    EXPECT_FALSE(r8.success);
    EXPECT_EQ(rn.freeRegs(RegClass::Int), 0u);
    EXPECT_EQ(rn.historyPosition(), pos0);
    expectClean(auditor, rn, "after exhaustion stall");

    // Draining the pipeline frees registers and renaming resumes.
    while (!inflight.empty()) {
        rn.commit(inflight.front());
        inflight.pop_front();
    }
    auto r9 = rn.rename(movzInst(8, 0x6000));
    EXPECT_TRUE(r9.success);
    expectClean(auditor, rn, "after recovery from exhaustion");
}

// ---- Squash-undo regressions for the repair path (Fig. 8).

TEST(ReuseRenamer, SquashAcrossRepairRestoresStaleAndUses)
{
    ReuseRenamer rn(bigShadowParams());
    RenameAuditor auditor;
    auto &tp = rn.predictor();
    tp.trainOnShadowExhausted(tp.indexFor(0x4000));

    rn.rename(movzInst(1, 0x4000));          // x1 -> P (bank 3)
    auto r2 = rn.rename(addInst(7, 1, 9));   // x7 reuses P: x1 stale
    ASSERT_TRUE(r2.reused);

    // The repair instruction: add x8 <- x1, x9.  Its history records,
    // in order: the repair mark, the repair's map write re-pointing x1,
    // the two source reads, and the destination map write.
    auto executed = [](const PhysRegTag &) { return true; };
    auto r3 = rn.rename(addInst(8, 1, 9), executed);
    ASSERT_EQ(r3.numRepairs, 1);
    ASSERT_EQ(r3.endToken, r3.token + 5);

    // Squash between the repair's map write and its source-read
    // entries: the reads (read bit, use counts, training hints) must
    // unwind exactly while the re-pointed map stays.
    rn.squashTo(r3.token + 2);
    expectClean(auditor, rn, "mid-instruction squash after repair write");
    EXPECT_EQ(rn.mapping(RegClass::Int, 1), r3.repairList[0].toTag);

    // Complete the squash: the stale bit and the shared register's
    // state must be exactly as before the repair instruction.
    rn.squashTo(r3.token);
    expectClean(auditor, rn, "full squash of the repair instruction");

    // Replaying the same instruction must reproduce the repair
    // verbatim: same repair count, same fresh register, same tags.
    auto r3b = rn.rename(addInst(8, 1, 9), executed);
    EXPECT_EQ(r3b.numRepairs, 1);
    EXPECT_EQ(r3b.repairUops, r3.repairUops);
    EXPECT_EQ(r3b.repairList[0].fromTag, r3.repairList[0].fromTag);
    EXPECT_EQ(r3b.repairList[0].toTag, r3.repairList[0].toTag);
    EXPECT_EQ(r3b.destTag, r3.destTag);
    EXPECT_EQ(r3b.srcTags[0], r3.srcTags[0]);
    EXPECT_EQ(r3b.srcTags[1], r3.srcTags[1]);
    expectClean(auditor, rn, "after replaying the repair");
}

TEST(ReuseRenamer, SquashRestoresReuseImpossibleHint)
{
    // A squashed first consumer that could never share the register
    // (cross-class dest) must not leave the training hint behind:
    // after the squash, the producer's predictor training must match a
    // twin renamer that never saw the consumer at all.
    const Addr producerPc = 0x4000;
    auto run = [&](bool renameAndSquashFcvt) {
        ReuseRenamer rn(bigShadowParams());
        auto p1 = rn.rename(movzInst(1, producerPc));
        if (renameAndSquashFcvt) {
            auto f = rn.rename(makeInst(isa::Opcode::Fcvt, isa::fpReg(1),
                                        isa::intReg(1)));
            rn.squashTo(f.token);
        }
        auto c1 = rn.rename(addInst(5, 1, 6));   // the real sole consumer
        auto p2 = rn.rename(movzInst(1, 0x7000)); // redefine x1
        rn.commit(p1);
        rn.commit(c1);
        rn.commit(p2);   // releases x1's first register: trains predictor
        auto &tp = rn.predictor();
        return tp.value(tp.indexFor(producerPc));
    };
    EXPECT_EQ(run(true), run(false));
}

// ---- History footprint tracking.

TEST(ReuseRenamer, HistoryPeakTracksInFlightFootprint)
{
    ReuseRenamer rn(bigShadowParams());
    EXPECT_EQ(rn.historyPeakEntries(), 0u);
    std::deque<RenameResult> inflight;
    for (int i = 0; i < 12; ++i)
        inflight.push_back(rn.rename(movzInst(1 + i % 8, 0x5000 + 16 * i)));
    // Every instruction appended at least one history entry.
    std::uint64_t peak = rn.historyPeakEntries();
    EXPECT_GE(peak, 12u);
    // Draining the pipeline keeps the lifetime peak.
    while (!inflight.empty()) {
        rn.commit(inflight.front());
        inflight.pop_front();
    }
    EXPECT_EQ(rn.historyPeakEntries(), peak);
}

TEST(BaselineRenamer, HistoryPeakTracksInFlightFootprint)
{
    BaselineRenamer rn(BaselineParams{64, 64});
    EXPECT_EQ(rn.historyPeakEntries(), 0u);
    std::deque<RenameResult> inflight;
    for (int i = 0; i < 12; ++i)
        inflight.push_back(rn.rename(movzInst(1 + i % 8, 0x5000 + 16 * i)));
    EXPECT_EQ(rn.historyPeakEntries(), 12u);
    while (!inflight.empty()) {
        rn.commit(inflight.front());
        inflight.pop_front();
    }
    EXPECT_EQ(rn.historyPeakEntries(), 12u);
}

// ---- Randomized rename/commit/squash interleaving over real traces,
// ---- audited at every commit and squash.

void
driveAudited(Renamer &rn, trace::ReplayStream &stream,
             std::uint64_t seed, RenameAuditor &auditor)
{
    Random rng(seed);
    std::deque<RenameResult> inflight;
    constexpr std::size_t maxInflight = 64;

    auto auditNow = [&](const char *when) -> bool {
        AuditReport report = auditor.audit(rn);
        EXPECT_TRUE(report.clean()) << when << ":\n" << report.toString();
        return report.clean();
    };
    auto commitOne = [&]() -> bool {
        rn.commit(inflight.front());
        inflight.pop_front();
        return auditNow("after commit");
    };

    while (true) {
        const double dice = rng.uniform();
        if (dice < 0.70 || inflight.empty()) {
            // Rename the next trace instruction.
            auto di = stream.next();
            if (!di)
                break;
            if (inflight.size() >= maxInflight && !commitOne())
                return;
            auto r = rn.rename(*di);
            if (!r.success) {
                // Structural stall: drain one instruction and retry
                // once; the instruction is dropped if it still stalls
                // (a shorter program is just as valid a schedule).
                ASSERT_FALSE(inflight.empty())
                    << "stall with an empty pipeline";
                if (!commitOne())
                    return;
                r = rn.rename(*di);
            }
            if (r.success)
                inflight.push_back(r);
        } else if (dice < 0.90) {
            if (!commitOne())
                return;
        } else {
            // Squash a random suffix of the in-flight window.
            std::size_t keep = rng.below(inflight.size() + 1);
            if (keep == inflight.size())
                continue;
            rn.squashTo(inflight[keep].token);
            inflight.resize(keep);
            if (!auditNow("after squash"))
                return;
        }
    }
    while (!inflight.empty()) {
        if (!commitOne())
            return;
    }
    auditNow("final state");
}

TEST(RenameAuditProperty, RandomizedInterleavingAllWorkloads)
{
    constexpr std::uint64_t cap = 2000;
    RenameAuditor auditor;
    const auto &ws = workloads::allWorkloads();
    ASSERT_FALSE(ws.empty());
    std::uint64_t seed = 0xa0d17ULL;
    for (const auto &w : ws) {
        // Small, shadow-heavy register files keep allocation pressure
        // (and therefore reuse, repair and stall traffic) high.
        for (int bits : {1, 2, 4}) {
            ReuseRenamerParams p;
            p.intBanks = {36, 4, 4, 4};
            p.fpBanks = {36, 4, 4, 4};
            p.counterBits = static_cast<std::uint8_t>(bits);
            ReuseRenamer rn(p);
            trace::ReplayStream stream(harness::traceCache().get(w, cap));
            driveAudited(rn, stream, seed++, auditor);
            if (HasFailure()) {
                FAIL() << "reuse renamer, workload " << w.name
                       << ", counterBits " << bits;
            }
        }
        BaselineRenamer base(BaselineParams{48, 48});
        trace::ReplayStream stream(harness::traceCache().get(w, cap));
        driveAudited(base, stream, seed++, auditor);
        if (HasFailure())
            FAIL() << "baseline renamer, workload " << w.name;
    }
    EXPECT_GT(auditor.auditCount(), 0u);
    EXPECT_EQ(auditor.violationCount(), 0u);
}

// ---- Harness integration: the O3 core's audit trigger points.

TEST(HarnessAudit, EveryCommitAuditingReportsThroughOutcome)
{
    const auto &w = workloads::allWorkloads().front();
    for (const auto &scheme : rename::registeredRenameSchemes()) {
        harness::RunConfig cfg = harness::schemeConfig(scheme, 64);
        cfg.maxInsts = 20000;
        cfg.obs.auditInterval = 1;   // audit after every commit
        auto out = harness::runOn(w, cfg);
        EXPECT_GT(out.auditsRun, 0u) << "scheme " << scheme;
        EXPECT_EQ(out.auditViolations, 0u);
        EXPECT_GT(out.historyPeak, 0u);
    }
}

TEST(HarnessAudit, DisabledAuditingRunsNoChecks)
{
    const auto &w = workloads::allWorkloads().front();
    harness::RunConfig cfg = harness::reuseConfig(64);
    cfg.maxInsts = 5000;
    cfg.obs.auditDisabled = true;   // overrides RRS_AUDIT and defaults
    auto out = harness::runOn(w, cfg);
    EXPECT_EQ(out.auditsRun, 0u);
    EXPECT_EQ(out.auditViolations, 0u);
}

TEST(HarnessAudit, PeriodicAuditingAuditsLessOften)
{
    const auto &w = workloads::allWorkloads().front();
    harness::RunConfig every = harness::reuseConfig(64);
    every.maxInsts = 10000;
    every.obs.auditInterval = 1;
    harness::RunConfig sparse = every;
    sparse.obs.auditInterval = 1000;   // every 1000 cycles + squashes
    auto outEvery = harness::runOn(w, every);
    auto outSparse = harness::runOn(w, sparse);
    EXPECT_GT(outSparse.auditsRun, 0u);
    EXPECT_LT(outSparse.auditsRun, outEvery.auditsRun);
    EXPECT_EQ(outEvery.auditViolations, 0u);
    EXPECT_EQ(outSparse.auditViolations, 0u);
    // Auditing is pure observation: the simulated outcome is
    // bit-identical at any interval.
    EXPECT_EQ(outEvery.sim.cycles, outSparse.sim.cycles);
    EXPECT_EQ(outEvery.sim.committedInsts, outSparse.sim.committedInsts);
}

TEST(HarnessAudit, TriggerCountsArePinned)
{
    // Exact audit counts on one run: int_crc, reuse at 64, 10k insts.
    // The run takes 28,773 cycles and rolls the renamer back 1,350
    // times (squashes plus flushes), each followed by one audit.
    const auto &w = workloads::workload("int_crc");
    harness::RunConfig every = harness::reuseConfig(64);
    every.maxInsts = 10000;
    every.obs.auditInterval = 1;
    harness::RunConfig sparse = every;
    sparse.obs.auditInterval = 1000;
    auto outEvery = harness::runOn(w, every);
    auto outSparse = harness::runOn(w, sparse);
    EXPECT_EQ(outEvery.sim.cycles, 28773u);
    EXPECT_EQ(outSparse.sim.cycles, 28773u);
    // Interval 1000: cycles 0, 1000, ..., 28000 (29) + 1,350.
    EXPECT_EQ(outSparse.auditsRun, 1379u);
    // Interval 1 (RRS_AUDIT=1) audits after every commit (10,000)
    // + 1,350, and never per cycle.
    EXPECT_EQ(outEvery.auditsRun, 11350u);
}

} // namespace
