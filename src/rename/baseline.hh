/**
 * @file
 * Baseline register renaming: merged register file, allocate a fresh
 * physical register per destination, release the previous mapping when
 * the redefining instruction commits (paper Section II).  Squash
 * recovery uses a rename history buffer walked backwards, as in gem5's
 * O3 rename stage.
 */

#ifndef RRS_RENAME_BASELINE_HH
#define RRS_RENAME_BASELINE_HH

#include <deque>
#include <vector>

#include "rename/renamer.hh"

namespace rrs::rename {

class RenameAuditor;

/** Baseline renamer configuration. */
struct BaselineParams
{
    std::uint32_t intRegs = 128;
    std::uint32_t fpRegs = 128;
};

/** The conventional release-on-commit renamer. */
class BaselineRenamer : public Renamer
{
  public:
    explicit BaselineRenamer(const BaselineParams &params);

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
    std::uint32_t maxVersions() const override { return 1; }

    /** Current speculative mapping (tests / debugging). */
    PhysRegTag mapping(RegClass cls, LogRegIndex reg) const override;

    /** Aggregate counters for reports. */
    std::uint64_t allocationCount() const { return allocations; }

    /** Largest number of history entries ever held at once. */
    std::uint64_t historyPeakEntries() const { return historyPeakCount; }

  private:
    friend class RenameAuditor;
    struct HistoryEntry
    {
        RegClass cls;
        LogRegIndex logReg;
        PhysRegIndex oldPhys;
        PhysRegIndex newPhys;
        PhysRegIndex releaseAtCommit;  //!< == oldPhys (freed on commit)
    };

    struct ClassState
    {
        std::vector<PhysRegIndex> map;        //!< spec map table
        std::vector<PhysRegIndex> freeList;
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

    BaselineParams params;
    ClassState classes[numRegClasses];

    std::deque<HistoryEntry> history;
    HistoryToken historyBase = 0;   //!< token of history.front()
    HistoryToken nextToken = 0;
    std::uint64_t historyPeakCount = 0;      //!< lifetime peak size
    std::size_t historyPeakSinceShrink = 0;  //!< peak since last trim
    /** Committed-storage bound; see ReuseRenamer's twin. */
    static constexpr std::size_t historyShrinkThreshold = 4096;

    std::uint64_t allocations = 0;    //!< physical registers allocated
};

} // namespace rrs::rename

#endif // RRS_RENAME_BASELINE_HH
