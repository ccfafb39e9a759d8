/**
 * @file
 * The experiment ledger: a content-addressed store of finished
 * simulation nodes (DESIGN §4j).
 *
 * A *node* is one (workload, scheme configuration, cap, sampling mode,
 * seed) simulation — the atom every figure and table is assembled
 * from.  Its identity is a 64-bit FNV-1a digest over a canonical key
 * string covering everything that can change the result:
 *
 *     ledger=<v>;bench=2;w=<name>;src=<hex>;suite=<s>;scheme=<k>;
 *     regs=<n>;cap=<n>;params=<k>:<v>,...;sampling=<w>:<d>:<p>:<f>:<c>;
 *     seed=<hex>
 *
 * The workload's assembly *source hash* is in the key, so editing a
 * kernel invalidates its nodes; the scheme's display label is not, so
 * renaming a column reuses them.  Two figures that need the same node
 * (fig10 and fig11 share their whole grid) get the same digest and pay
 * for one simulation.
 *
 * Entries live at `<dir>/nodes/<16-hex-digest>.json` and contain only
 * deterministic simulation results: the run row (wall clock written
 * as zero), the full-cycle stall attribution, and the rename counters.
 * No timestamps, no git sha, no host data — so a ledger built in two
 * interrupted halves is byte-identical to one built in a single run,
 * and ledgers from different machines diff clean.  Host-side context
 * (git sha, wall clock, thread count) belongs to the campaign sidecar
 * (harness/campaign.hh), not to the nodes.
 *
 * Writes go through tryWriteFileAtomic, so a killed campaign can never
 * leave a truncated node behind: on restart every present digest is
 * trusted and skipped, and only the missing nodes are re-simulated.
 */

#ifndef RRS_HARNESS_LEDGER_HH
#define RRS_HARNESS_LEDGER_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.hh"

namespace rrs::harness {

/** Bump when the node key grammar or entry layout changes. */
constexpr int ledgerSchemaVersion = 1;

/** Everything that identifies one ledger node. */
struct NodeSpec
{
    std::string workload;        //!< workload name, e.g. "fp_matmul"
    std::string suite;           //!< its suite (redundant, for reports)
    std::uint64_t sourceHash = 0; //!< workloads::sourceHash of its source
    std::string scheme;          //!< rename-scheme registry key
    std::string label;           //!< display label; NOT part of the key

    /** Declarative parameter overrides, in document order. */
    std::vector<std::pair<std::string, double>> params;

    std::uint32_t regs = 0;      //!< baseline-equivalent RF size
    std::uint64_t cap = 0;       //!< resolved instruction cap
    SamplingParams sampling;     //!< all-zero = exact mode
    std::uint64_t seed = 0;      //!< effective per-run RNG seed
};

/** The canonical key string the digest is computed over. */
std::string nodeKey(const NodeSpec &spec);

/** FNV-1a digest of nodeKey(spec): the node's identity. */
std::uint64_t nodeDigest(const NodeSpec &spec);

/** A digest as the fixed-width 16-hex-char file-name form. */
std::string digestHex(std::uint64_t digest);

/**
 * One stored node: the spec and its run's results.  A node file stores
 * only the deterministic results in ledger.cc's field list (the run
 * row's insts and cycles, a sampled node's summary, the stall
 * attribution and the rename counters); every other Outcome member
 * parses back as zero.  No host data (wall clock, threads) is stored.
 */
struct LedgerEntry
{
    NodeSpec spec;
    Outcome outcome;
};

/** Render an entry as its node-file JSON document. */
std::string renderLedgerEntryJson(const LedgerEntry &e);

/**
 * Parse a node file back; false + error on malformed input.  Every
 * field the writer emits is required and read as written: a run row
 * that disagrees with its node block, a nonzero wall clock, zero insts
 * or cycles, or a digest or key that does not match the spec is
 * refused.
 */
bool parseLedgerEntryJson(const std::string &text, LedgerEntry &out,
                          std::string &error);

/**
 * A ledger directory.  Layout:
 *
 *     <dir>/nodes/<16-hex>.json    one file per finished node
 *     <dir>/campaign.json          host-side sidecar (campaign.hh)
 */
class Ledger
{
  public:
    explicit Ledger(std::string directory) : dir(std::move(directory)) {}

    const std::string &directory() const { return dir; }
    std::string nodesDir() const { return dir + "/nodes"; }
    std::string nodePath(const std::string &hex) const
    {
        return nodesDir() + "/" + hex + ".json";
    }

    /** Is this digest already simulated? */
    bool has(const std::string &hex) const;

    /** Load one node; false + error when absent or malformed. */
    bool tryLoad(const std::string &hex, LedgerEntry &out,
                 std::string &error) const;

    /** Atomically store one node (creates the directory tree). */
    bool store(const std::string &hex, const LedgerEntry &e,
               std::string &error) const;

    /** All stored digests, sorted (deterministic iteration order). */
    std::vector<std::string> listNodes() const;

  private:
    std::string dir;
};

/**
 * The drift report between two ledgers (the report's "vs baseline"
 * section).  Exact nodes gate on every stored result field: insts,
 * cycles, each stall cause and the rename counters.  Sampled
 * nodes gate on 95% CI overlap: two estimates agree when
 * |mean_a - mean_b| does not exceed the sum of their reported CIs.
 */
struct LedgerDiff
{
    std::vector<std::string> onlyBase;   //!< digests missing from cur
    std::vector<std::string> onlyCur;    //!< digests missing from base

    struct Row
    {
        std::string digest;              //!< 16-hex node id
        std::string workload;
        std::string scheme;              //!< display label
        std::uint32_t regs = 0;
        std::string metric;              //!< "insts"/"cycles"/"mean_ipc"/...
        std::string baseVal, curVal;
    };
    std::vector<Row> drift;

    bool clean() const
    {
        return onlyBase.empty() && onlyCur.empty() && drift.empty();
    }
};

/** Diff every node the two ledgers share, plus the set difference. */
LedgerDiff diffLedgers(const Ledger &base, const Ledger &cur);

} // namespace rrs::harness

#endif // RRS_HARNESS_LEDGER_HH
