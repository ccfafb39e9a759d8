/**
 * @file
 * The pluggable rename-scheme interface and its table of schemes.
 *
 * The paper compares two rename policies (conventional rename and
 * physical-register sharing); the ROADMAP's next scheme families
 * (read-port-count reduction, versioned-tag chaining) must slot in
 * without touching the core or the benches.  A RenameScheme bundles
 * everything the harness needs to run a policy it has never heard of:
 *
 *  - a factory producing the scheme's Renamer from a SchemeParams
 *    block (the core drives the Renamer protocol as before);
 *  - an equal-area configurator mapping a baseline register-file size
 *    to this scheme's same-area configuration (paper Table III);
 *  - an area descriptor pricing the scheme's structures so the area
 *    model can compare schemes at equal silicon;
 *  - a generic counter extractor feeding the harness Outcome;
 *  - declarative parameter setters so sweep matrices (JSON) can
 *    express per-scheme ablations without C++ loops.
 *
 * The schemes live in one static table in rename/scheme.cc, looked up
 * by name; run configurations select one with a string key.  A new
 * scheme is one more entry in that table, and every entry inherits
 * the cross-scheme conformance suite
 * (tests/scheme_conformance_test.cpp) and the RRS_AUDIT invariant
 * auditor (rename/audit.hh).
 */

#ifndef RRS_RENAME_SCHEME_HH
#define RRS_RENAME_SCHEME_HH

#include <memory>
#include <string>
#include <vector>

#include "rename/baseline.hh"
#include "rename/reuse.hh"

namespace rrs::rename {

/**
 * Union of every scheme family's parameter block.  A scheme reads only
 * its own member; carrying all of them keeps RunConfig a plain value
 * type (copyable, sweepable) without per-scheme templates.  New scheme
 * families add a member here.
 */
struct SchemeParams
{
    BaselineParams baseline;
    ReuseRenamerParams reuse;
};

/** Generic per-run counters a scheme reports into the Outcome. */
struct SchemeCounters
{
    std::uint64_t allocations = 0;
    std::uint64_t reuses = 0;       //!< 0 for schemes without sharing
    std::uint64_t repairs = 0;      //!< 0 for schemes without repair
    std::uint64_t historyPeak = 0;  //!< peak rename-history entries
    PredictorBreakdown fig12;
};

/**
 * What a scheme contributes to the area model: its register-file
 * organisation plus the side structures it adds.  Plain scalars so the
 * area layer can price it without depending on rename types
 * (area::AreaModel::schemeArea consumes this shape field by field).
 */
struct SchemeAreaDescriptor
{
    /** banks[i]: registers with i embedded shadow cells, per class. */
    std::array<std::uint32_t, 4> intBanks{};
    std::array<std::uint32_t, 4> fpBanks{};

    std::uint32_t prtCounterBits = 0;   //!< 0: no PRT
    std::uint32_t iqExtraTagBits = 0;   //!< extra CAM bits per IQ entry
    std::uint32_t predictorEntries = 0; //!< 0: no predictor
    std::uint32_t predictorBits = 0;    //!< bits per predictor entry
};

/** One declarative parameter: its key and the whole values it takes. */
struct SchemeParamRange
{
    std::string key;
    std::uint64_t min;
    std::uint64_t max;
};

/** A pluggable rename scheme (stateless; a factory plus metadata). */
class RenameScheme
{
  public:
    virtual ~RenameScheme() = default;

    /** Registry key, e.g. "baseline" or "reuse". */
    virtual const std::string &name() const = 0;

    /** Build this scheme's renamer from its parameter block. */
    virtual std::unique_ptr<Renamer>
    makeRenamer(const SchemeParams &params) const = 0;

    /**
     * Configure `params` so this scheme occupies the same area as a
     * conventional file of `baselineRegs` registers per class (the
     * paper's Table III mapping; the baseline scheme just takes the
     * size).
     */
    virtual void configureEqualArea(SchemeParams &params,
                                    std::uint32_t baselineRegs) const = 0;

    /** Price this configuration for the area model. */
    virtual SchemeAreaDescriptor
    areaDescriptor(const SchemeParams &params) const = 0;

    /** Extract the generic counters from a renamer this scheme built. */
    virtual SchemeCounters counters(const Renamer &renamer) const = 0;

    /**
     * Apply one declarative "key: value" override from a sweep matrix.
     * @return false if the key is not one of paramRanges().
     */
    virtual bool setParam(SchemeParams &params, const std::string &key,
                          double value) const = 0;

    /**
     * The keys setParam() accepts, each with the whole values its
     * field holds and the scheme's renamer takes.  The matrix parser
     * rejects any other key or value before a sweep starts.
     */
    virtual std::vector<SchemeParamRange> paramRanges() const = 0;
};

/**
 * Factory lookup, typed-absence flavour: nullptr when `name` is not
 * in the table.  This is the config-parse-time check — resolve the
 * scheme before a sweep starts so an unknown name is a clean
 * diagnostic, never a crash mid-sweep.
 */
const RenameScheme *findRenameScheme(const std::string &name);

/** Factory lookup that fatals with the known names on a miss. */
const RenameScheme &renameScheme(const std::string &name);

/** Names of every scheme, in table order. */
std::vector<std::string> registeredRenameSchemes();

/**
 * The reuse scheme's equal-area rows (paper Table III / this repo's
 * tuned rows), exposed for the Table III bench and the equal-area
 * solver.  Nearest row wins when `baselineRegs` is not a sweep point.
 */
BankConfig reuseEqualAreaBanks(std::uint32_t baselineRegs,
                               bool paperPreset = false);

/** One equal-area row: baseline size -> 4-bank organisation. */
struct EqualAreaPreset
{
    std::uint32_t baselineRegs;
    BankConfig banks;
};

/** The full preset tables behind reuseEqualAreaBanks(). */
const std::vector<EqualAreaPreset> &
reuseEqualAreaPresets(bool paperPreset);

} // namespace rrs::rename

#endif // RRS_RENAME_SCHEME_HH
