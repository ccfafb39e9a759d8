/**
 * @file
 * Rename-stage invariant auditor.
 *
 * The paper's whole result rests on bookkeeping invariants the renamer
 * maintains incrementally: PRT reference counts must equal the number
 * of map entries naming a register, the free lists must partition the
 * unallocated registers, and version counters must never exceed a
 * bank's shadow-cell capacity (Section IV, Fig. 4b).  The auditor
 * recomputes every one of those properties from scratch from the map
 * tables and compares against the renamer's incremental state, the way
 * gem5's O3 debug machinery cross-checks its rename maps.
 *
 * Usage: harness::runOn drives an auditor from a core observer
 * (obs/observer.hh) with these trigger points: after every squash and
 * every flush, plus either after every commit (interval 1) or every N
 * cycles (interval N > 1).  check() panics with a full structured
 * report on the first violation, so a CI failure names the register,
 * the invariant, and the expected/actual values.  audit() returns the
 * report instead, which is what the fault-injection tests use to
 * assert that each seeded fault class is caught.
 */

#ifndef RRS_RENAME_AUDIT_HH
#define RRS_RENAME_AUDIT_HH

#include <string>
#include <vector>

#include "rename/renamer.hh"

namespace rrs::rename {

class BaselineRenamer;
class ReuseRenamer;

/** The invariants the auditor can report against. */
enum class AuditInvariant : std::uint8_t {
    SpecRefCount,     //!< specRefs != spec map entries naming the reg
    RetRefCount,      //!< retRefs != retirement map entries naming it
    FreeListPartition,//!< reg not in exactly one of free list/allocated
    CounterCapacity,  //!< version counter > bank shadow capacity
    CounterWidth,     //!< version counter overflows its N-bit field
    CounterAllocated, //!< counter > 0 on an unallocated register
    HistorySize,      //!< history size != nextToken - historyBase
    StaleBit,         //!< stale flag inconsistent with the PRT counter
    VersionRange,     //!< a map entry names a version beyond the counter
    ReadBitUses,      //!< read bit inconsistent with use count
    FreeEntryState,   //!< a free register still carries live state
};

const char *toString(AuditInvariant inv);

/** One violated invariant, with enough context to act on. */
struct AuditViolation
{
    AuditInvariant invariant;
    RegClass cls = RegClass::Int;
    PhysRegIndex phys = invalidRegIndex;  //!< or invalid (global checks)
    std::string detail;                   //!< expected vs actual

    std::string toString() const;
};

/** The result of one full audit pass. */
struct AuditReport
{
    std::vector<AuditViolation> violations;

    bool clean() const { return violations.empty(); }

    /** Shorthand: does any violation name this invariant? */
    bool names(AuditInvariant inv) const;

    /** Multi-line rendering of every violation. */
    std::string toString() const;
};

/**
 * Walks a renamer and verifies the full invariant set.  Stateless but
 * for its counters, so one auditor can serve any number of audits (it
 * holds no reference to the renamer it checks).
 */
class RenameAuditor
{
  public:
    /** Audit either renamer type (dispatched on the concrete type). */
    AuditReport audit(const Renamer &renamer);
    AuditReport audit(const ReuseRenamer &renamer);
    AuditReport audit(const BaselineRenamer &renamer);

    /**
     * Audit and panic on the first violation, printing the whole
     * report plus `where` (the trigger point).  This is the CI-facing
     * entry: any violation fails the run loudly and actionably.
     */
    void check(const Renamer &renamer, const char *where);

    /** Cumulative counters. */
    std::uint64_t auditCount() const { return auditsRun; }
    std::uint64_t violationCount() const { return violationsFound; }

  private:
    std::uint64_t auditsRun = 0;
    std::uint64_t violationsFound = 0;
};

} // namespace rrs::rename

#endif // RRS_RENAME_AUDIT_HH
