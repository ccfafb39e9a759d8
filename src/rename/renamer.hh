/**
 * @file
 * The renamer interface shared by the baseline merged-register-file
 * scheme and the proposed physical-register-sharing scheme.
 *
 * Protocol with the core:
 *  - rename() is called once per instruction in program order.  On a
 *    structural stall (no free register and no reuse) it returns
 *    success == false with NO side effects; the core retries next
 *    cycle.
 *  - The returned RenameResult is stored in the instruction's ROB entry
 *    and handed back verbatim to commit() or used for squashes.
 *  - squashTo(token) undoes every rename action with history position
 *    >= token (i.e. the squashed instruction and everything younger).
 *  - commit() retires the instruction's rename actions (releases the
 *    previous mapping, trains predictors) and garbage-collects history.
 */

#ifndef RRS_RENAME_RENAMER_HH
#define RRS_RENAME_RENAMER_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "rename/physreg.hh"
#include "trace/dyninst.hh"

namespace rrs::rename {

/** Position in the renamer's history buffer (absolute, monotonic). */
using HistoryToken = std::uint64_t;

/** Output of renaming one instruction. */
struct RenameResult
{
    bool success = false;         //!< false: structural stall, retry

    std::array<PhysRegTag, 3> srcTags{};  //!< versioned source tags
    std::uint8_t numSrcTags = 0;

    PhysRegTag destTag;           //!< versioned destination tag
    bool hasDest = false;

    bool reused = false;          //!< dest shares a source's register
    std::uint8_t reuseDepth = 0;  //!< version after reuse (1..maxV-1)

    /**
     * Single-use misprediction repair (paper Fig. 8): number of move
     * micro-ops the rename stage must inject before this instruction
     * (0 if no repair; 1 per repair if the overwriting producer had not
     * executed; 3 if the old value had to be recovered from a shadow
     * cell).
     */
    std::uint8_t repairUops = 0;

    /** One repair action (proposed scheme only). */
    struct RepairInfo
    {
        isa::RegId logReg;    //!< logical register being repaired
        PhysRegTag fromTag;   //!< stale (overwritten) versioned value
        PhysRegTag toTag;     //!< fresh register the value moves to
        std::uint8_t uops;    //!< move micro-ops charged
    };
    std::array<RepairInfo, 3> repairList{};
    std::uint8_t numRepairs = 0;

    /** Destination logical register (for retirement map update). */
    isa::RegId destReg;

    /** History positions covering this instruction's rename actions. */
    HistoryToken token = 0;      //!< history position before renaming
    HistoryToken endToken = 0;   //!< history position after renaming
};

/**
 * Release-time classification of a scheme's reuse predictions (paper
 * Fig. 12).  Schemes without a reuse predictor report all zeros.
 */
struct PredictorBreakdown
{
    double reuseCorrect = 0;
    double reuseWrong = 0;
    double noReuseCorrect = 0;
    double noReuseWrong = 0;
    double total() const
    {
        return reuseCorrect + reuseWrong + noReuseCorrect +
               noReuseWrong;
    }
};

/** Abstract renamer. */
class Renamer
{
  public:
    Renamer() = default;
    virtual ~Renamer() = default;

    Renamer(const Renamer &) = delete;
    Renamer &operator=(const Renamer &) = delete;

    /**
     * Does nothing.  Kept only for perfbench's TimedRenamer, which
     * still calls Renamer("timed_renamer", nullptr); ROADMAP item 10
     * deletes it together with that call.
     */
    Renamer(const std::string &, std::nullptr_t) {}

    /**
     * Rename one instruction.
     * @param di the dynamic instruction
     * @param producerExecuted callback: has the producer of the current
     *        version of a register executed yet?  Used to cost repair
     *        micro-ops; may be empty for analyses that don't care.
     */
    virtual RenameResult rename(
        const trace::DynInst &di,
        const std::function<bool(const PhysRegTag &)> &producerExecuted =
            {}) = 0;

    /** Retire an instruction's rename actions, in program order. */
    virtual void commit(const RenameResult &result) = 0;

    /**
     * Undo every rename action at history position >= token.
     * @param produced callback: has this versioned register value
     *        actually been written to the register file?  Only
     *        overwritten (produced) versions need a shadow-cell recover
     *        command; squashed never-executed producers left the main
     *        cell untouched.  An empty callback counts every undone
     *        reuse (conservative).
     * @return number of shadow-cell recover commands required (always 0
     *         for the baseline), which the core converts into recovery
     *         cycles.
     */
    virtual std::uint32_t squashTo(
        HistoryToken token,
        const std::function<bool(const PhysRegTag &)> &produced = {}) = 0;

    /** Current history position (token for "squash nothing"). */
    virtual HistoryToken historyPosition() const = 0;

    /**
     * Current speculative mapping of a logical register.  Part of the
     * scheme contract so the conformance kit and the auditor can
     * snapshot and diff the map table of any scheme.
     */
    virtual PhysRegTag mapping(RegClass cls, LogRegIndex reg) const = 0;

    /** Free registers available right now in a class. */
    virtual std::uint32_t freeRegs(RegClass cls) const = 0;

    /** Total physical registers in a class (any bank). */
    virtual std::uint32_t totalRegs(RegClass cls) const = 0;

    /**
     * Physical registers currently holding more than one value
     * (version counter >= 1), i.e. sharedAtLeast(cls, 1).  Always 0
     * for the baseline.  Nothing in the library calls it; it stays
     * while perfbench's TimedRenamer overrides it (ROADMAP item 10).
     */
    virtual std::uint32_t sharedRegs(RegClass) const { return 0; }

    /**
     * Registers whose current version counter is >= k (the occupancy
     * sampler's Fig. 9 counts).  Always 0 for schemes without sharing.
     */
    virtual std::uint32_t sharedAtLeast(RegClass, std::uint8_t) const
    {
        return 0;
    }

    /** Maximum versions a tag can carry (1 for the baseline). */
    virtual std::uint32_t maxVersions() const = 0;

    /**
     * Committed logical registers whose value currently lives in a
     * shadow cell (recover commands needed on a full flush).  Zero for
     * the baseline.
     */
    virtual std::uint32_t committedShadowValues() const { return 0; }

    /** Scoreboard indexer sized for this renamer's register space. */
    TagIndexer
    tagIndexer() const
    {
        std::uint32_t regs = std::max(totalRegs(RegClass::Int),
                                      totalRegs(RegClass::Float));
        return TagIndexer{regs, maxVersions()};
    }

    /**
     * True if the instruction's dest actually allocates/renames: calls
     * write the link register, xzr dests are discarded.
     */
    static bool
    writesReg(const trace::DynInst &di)
    {
        return di.si.hasDest() &&
               !(di.si.dest.cls == RegClass::Int &&
                 di.si.dest.idx == isa::zeroReg);
    }

    /** True if source s is a real register read (not xzr). */
    static bool
    readsReg(const trace::DynInst &di, int s)
    {
        const isa::RegId &r = di.si.srcs[static_cast<std::size_t>(s)];
        return !(r.cls == RegClass::Int && r.idx == isa::zeroReg);
    }
};

} // namespace rrs::rename

#endif // RRS_RENAME_RENAMER_HH
