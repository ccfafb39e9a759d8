/**
 * @file
 * The paper's register renaming scheme with physical register sharing
 * (Section IV).
 *
 * Key structures:
 *  - Physical Register Table (PRT): per physical register, a Read bit
 *    (has the current version seen a renamed consumer?) and an N-bit
 *    version counter, plus bookkeeping this model needs (bank id,
 *    predictor index, reference counts).
 *  - Versioned map tables: the speculative and retirement map tables
 *    hold (physical register, version) pairs; the issue queue wakes up
 *    consumers by full versioned tag.
 *  - Four-bank register file: banks provide 0/1/2/3 embedded shadow
 *    cells; a register can be reused only while it has shadow capacity
 *    left and its version counter is not saturated.
 *  - Register type predictor: chooses the allocation bank and doubles
 *    as the single-use predictor for non-redefining reuse.
 *
 * Release policy: physical registers are reference-counted by map
 * entries (speculative + retirement).  For unshared registers this
 * degenerates to the baseline's release-on-commit of the redefiner;
 * for shared registers it delays release until every logical register
 * whose (possibly stale) mapping still names the register has moved
 * on — which is precisely what keeps shadow-cell recovery sound.
 *
 * Single-use misprediction (Fig. 8): a source whose map version is
 * older than the PRT counter was overwritten by a reuse.  The renamer
 * allocates a fresh register, reports 1 or 3 repair micro-ops
 * (depending on whether the overwriting producer already executed) and
 * re-points the logical register.
 */

#ifndef RRS_RENAME_REUSE_HH
#define RRS_RENAME_REUSE_HH

#include <array>
#include <deque>
#include <vector>

#include "rename/predictor.hh"
#include "rename/renamer.hh"

namespace rrs::rename {

class RenameAuditor;

/** Per-class bank sizes: index == number of embedded shadow cells. */
using BankConfig = std::array<std::uint32_t, 4>;

/** Configuration of the proposed renamer. */
struct ReuseRenamerParams
{
    BankConfig intBanks{58, 8, 8, 8};
    BankConfig fpBanks{58, 8, 8, 8};
    std::uint8_t counterBits = 2;          //!< version counter width
    TypePredictorParams predictor;
    bool reuseNonRedef = true;   //!< ablation: predictor-driven reuse
    bool reuseEnabled = true;    //!< ablation: disable sharing entirely
    /**
     * Minimum predictor entry value before a non-redefining consumer
     * speculatively reuses a source register (higher = fewer repairs).
     */
    std::uint8_t nonRedefConfidence = 1;
};

/** The proposed renamer. */
class ReuseRenamer : public Renamer
{
  public:
    explicit ReuseRenamer(const ReuseRenamerParams &params);

    RenameResult rename(
        const trace::DynInst &di,
        const std::function<bool(const PhysRegTag &)> &producerExecuted =
            {}) override;

    void commit(const RenameResult &result) override;
    std::uint32_t squashTo(
        HistoryToken token,
        const std::function<bool(const PhysRegTag &)> &produced =
            {}) override;
    HistoryToken historyPosition() const override { return nextToken; }

    std::uint32_t freeRegs(RegClass cls) const override;
    std::uint32_t totalRegs(RegClass cls) const override;
    std::uint32_t
    maxVersions() const override
    {
        return 1u << params.counterBits;
    }

    /** Registers currently in use (not free) in a bank (Fig. 9). */
    std::uint32_t bankInUse(RegClass cls, int bank) const;

    /** Registers whose current version counter is >= k (Fig. 9). */
    std::uint32_t sharedAtLeast(RegClass cls,
                                std::uint8_t k) const override;

    std::uint32_t
    sharedRegs(RegClass cls) const override
    {
        return sharedAtLeast(cls, 1);
    }

    /** Current speculative mapping (tests / debugging). */
    PhysRegTag mapping(RegClass cls, LogRegIndex reg) const override;

    /** The predictor (tests / ablations). */
    RegisterTypePredictor &predictor() { return typePred; }

    /** Figure 12 release-time classification counts. */
    using Fig12Counts = PredictorBreakdown;
    Fig12Counts
    fig12Counts() const
    {
        return Fig12Counts{predReuseCorrect, predReuseWrong,
                           predNoReuseCorrect, predNoReuseWrong};
    }

    /** Aggregate counters for reports. */
    std::uint64_t allocationCount() const { return allocations; }
    std::uint64_t reuseCount() const { return reuses; }
    std::uint64_t repairCount() const { return repairEvents; }

    /**
     * Number of committed logical registers whose value would need a
     * shadow-cell recover command if the pipeline flushed right now
     * (retirement mappings whose version is older than the PRT
     * counter).  Used to charge exception-recovery cycles.
     */
    std::uint32_t committedShadowValues() const;

    /** Largest number of history entries ever held at once. */
    std::uint64_t historyPeakEntries() const { return historyPeakCount; }

    /**
     * Fault-injection seam for the invariant auditor's own tests.
     * Each fault class corrupts the bookkeeping the way a real
     * release-policy bug would; the auditor must catch every one
     * (tests/rename_audit_test.cpp).  Never called outside tests.
     */
    enum class InjectedFault : std::uint8_t {
        FlipReadBit,   //!< toggle an allocated register's PRT read bit
        LeakFreeReg,   //!< pop a free-list entry and drop it on the floor
        SkipRefDrop,   //!< leave a stale spec refcount behind
        DoubleFree,    //!< push an already-free register again
    };

    /** @return false if the current state offers no injection target. */
    bool injectFault(InjectedFault fault, RegClass cls = RegClass::Int);

  private:
    friend class RenameAuditor;
    static constexpr std::uint32_t noPred = 0xffffffff;

    /** PRT entry plus model bookkeeping. */
    struct PrtEntry
    {
        // Architected PRT state (paper Fig. 4b).
        bool readBit = false;
        std::uint8_t counter = 0;       //!< current version

        // Structural attributes.
        std::uint8_t bank = 0;          //!< shadow cells available

        // Bookkeeping.
        std::uint32_t predIndex = noPred; //!< predictor entry at alloc
        std::uint8_t usesCurVersion = 0;  //!< consumers of current version
        bool multiUse = false;            //!< any version saw >1 consumer
        /**
         * The first consumer could never have shared this register
         * (no destination, wrong class, or it reused a different
         * source): going unshared was not a predictor miss.
         */
        bool reuseImpossible = false;
        std::uint32_t totalUses = 0;      //!< consumers across versions
        std::uint16_t specRefs = 0;       //!< spec map entries naming it
        std::uint16_t retRefs = 0;        //!< retirement map entries
        bool allocated = false;
    };

    /** A (tag, staleness) map entry. */
    struct MapEntry
    {
        PhysRegTag tag;
        bool stale = false;   //!< version older than the PRT counter
    };

    enum class HistKind : std::uint8_t {
        SrcRead,     //!< read-bit / use-count change on a source
        MapWrite,    //!< speculative map update (alloc, reuse or repair)
        ReuseBump,   //!< PRT counter increment on a reuse
        RepairMark,  //!< repair detection flagged the shared register
    };

    struct HistoryEntry
    {
        HistKind kind;
        RegClass cls;
        // SrcRead / ReuseBump / RepairMark: the physical register.
        PhysRegIndex phys = invalidRegIndex;
        // SrcRead: previous state.
        bool prevReadBit = false;
        std::uint8_t prevUses = 0;
        // SrcRead: training-hint flag before this read (a squashed
        // first read must not leave the hint behind).
        bool prevReuseImpossible = false;
        // RepairMark: multi-use flag before the repair detection.
        bool prevMultiUse = false;
        // MapWrite: the logical register and its previous entry.
        LogRegIndex logReg = invalidRegIndex;
        MapEntry prevEntry;
        // ReuseBump: source logical register marked stale (or invalid).
        LogRegIndex staleLogReg = invalidRegIndex;
    };

    struct ClassState
    {
        std::vector<MapEntry> specMap;
        std::vector<PhysRegTag> retMap;
        std::array<std::vector<PhysRegIndex>, 4> freeLists;
        std::vector<PrtEntry> prt;
        std::uint32_t total = 0;
    };

    ClassState &state(RegClass cls)
    {
        return classes[static_cast<int>(cls)];
    }
    const ClassState &
    state(RegClass cls) const
    {
        return classes[static_cast<int>(cls)];
    }

    const BankConfig &
    bankConfig(RegClass cls) const
    {
        return cls == RegClass::Int ? params.intBanks : params.fpBanks;
    }

    /** Free-list pop honouring the predicted bank, closest-first. */
    PhysRegIndex allocFromBank(RegClass cls, std::uint8_t wantBank);

    /** Drop a reference; frees the register when fully unreferenced. */
    void dropSpecRef(RegClass cls, PhysRegIndex phys, bool fromSquash);
    void dropRetRef(RegClass cls, PhysRegIndex phys);
    void maybeRelease(RegClass cls, PhysRegIndex phys, bool fromSquash);

    /** Write the speculative map with reference accounting + history. */
    void specMapWrite(RegClass cls, LogRegIndex logReg, MapEntry entry,
                      bool fromSquash);

    /** Append a history entry, tracking the peak footprint. */
    void pushHistory(const HistoryEntry &h);

    ReuseRenamerParams params;
    ClassState classes[numRegClasses];
    RegisterTypePredictor typePred;

    std::deque<HistoryEntry> history;
    HistoryToken historyBase = 0;
    HistoryToken nextToken = 0;
    std::uint64_t historyPeakCount = 0;      //!< lifetime peak size
    std::size_t historyPeakSinceShrink = 0;  //!< peak since last trim
    /**
     * Committed-storage bound: once the deque drains after having
     * grown past this many entries (a long ROB stall), give the spare
     * chunks back instead of carrying the peak footprint forever.
     */
    static constexpr std::size_t historyShrinkThreshold = 4096;

    std::uint64_t allocations = 0;    //!< fresh registers allocated
    std::uint64_t reuses = 0;         //!< destinations renamed by sharing
    std::uint64_t repairEvents = 0;   //!< single-use mispredict repairs
    // Figure 12 categories, classified at natural release.
    std::uint64_t predReuseCorrect = 0;
    std::uint64_t predReuseWrong = 0;
    std::uint64_t predNoReuseCorrect = 0;
    std::uint64_t predNoReuseWrong = 0;
};

} // namespace rrs::rename

#endif // RRS_RENAME_REUSE_HH
