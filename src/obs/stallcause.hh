/**
 * @file
 * Top-down-style cycle accounting: every simulated cycle is attributed
 * to exactly one cause, so "where did the cycles go" is answerable
 * directly from a run's Outcome (and the ledger's stall fields)
 * instead of from printf debugging.
 *
 * Taxonomy (one cause per cycle, checked in this order):
 *
 *  - commit       ≥1 instruction committed — a useful cycle.
 *  - drain        nothing committed, the instruction stream is
 *                 exhausted and fetch has nothing left to supply; the
 *                 backend is finishing the tail of the run.
 *  - renameNoReg  nothing committed and rename was blocked this cycle
 *    renameRob    on the named structure (free-list exhaustion, ROB,
 *    renameIq     IQ, or LSQ full), counted in whole cycles.
 *    renameLsq
 *  - frontend     nothing committed and the backend was empty: the
 *                 cycle was lost to fetch (icache miss, redirect
 *                 penalty, fetch-queue starvation).
 *  - backendExec  nothing committed, instructions in flight, rename
 *                 not blocked: the backend is waiting on execution
 *                 (dependences, functional units, memory).
 *
 * The rollup: frontendCycles() = frontend; backendCycles() = the four
 * rename causes + backendExec; plus drain and commit.  The invariant
 * sum() == cycles is asserted by verify() at the end of every run and
 * by the stall-attribution tests.
 */

#ifndef RRS_OBS_STALLCAUSE_HH
#define RRS_OBS_STALLCAUSE_HH

#include <cstdint>

namespace rrs::obs {

/** The per-cycle attribution outcome. */
enum class CycleCause : std::uint8_t {
    Commit,
    Drain,
    RenameNoReg,
    RenameRob,
    RenameIq,
    RenameLsq,
    Frontend,
    BackendExec,
};

/** Number of causes (for iteration). */
constexpr int numCycleCauses = 8;

/** Short stable name of a cause (stat/report key). */
const char *cycleCauseName(CycleCause c);

/**
 * A run's cycle accounting: one count per cause.  The core's
 * CycleAccounting fills one; harness::Outcome carries a copy.
 */
struct StallBreakdown
{
    std::uint64_t counts[numCycleCauses] = {};

    std::uint64_t
    of(CycleCause c) const
    {
        return counts[static_cast<int>(c)];
    }

    std::uint64_t sum() const;

    /** Cycles lost to the empty-backend (fetch-side) condition. */
    std::uint64_t frontendCycles() const
    {
        return of(CycleCause::Frontend);
    }

    /** Cycles lost with work in flight (rename-blocked or executing). */
    std::uint64_t backendCycles() const
    {
        return of(CycleCause::RenameNoReg) + of(CycleCause::RenameRob) +
               of(CycleCause::RenameIq) + of(CycleCause::RenameLsq) +
               of(CycleCause::BackendExec);
    }

    std::uint64_t drainCycles() const { return of(CycleCause::Drain); }
    std::uint64_t commitCycles() const { return of(CycleCause::Commit); }
};

/**
 * The accounting the core owns, fed by attribute() once per simulated
 * cycle, or once per stretch of quiet cycles it skips.
 */
class CycleAccounting
{
  public:
    /** Charge `n` cycles (the current one by default) to one cause. */
    void
    attribute(CycleCause c, std::uint64_t n = 1)
    {
        causes.counts[static_cast<int>(c)] += n;
    }

    /** Copy the counters out. */
    StallBreakdown breakdown() const { return causes; }

    /** Assert the invariant: attributed cycles == total cycles. */
    void verify(std::uint64_t totalCycles) const;

  private:
    StallBreakdown causes;
};

} // namespace rrs::obs

#endif // RRS_OBS_STALLCAUSE_HH
