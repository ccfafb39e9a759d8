/**
 * @file
 * Lightweight statistics package, modelled on gem5's: named scalar
 * counters, averages, sparse integer distributions and fixed-bucket
 * histograms, organised into groups that can be dumped as text or as
 * machine-readable JSON.
 *
 * Stats are plain members of the owning model object and register
 * themselves with the owner's Group; dumping a Group walks its stats in
 * registration order so reports are stable across runs.
 *
 * Threading model: individual stats are *not* synchronised.  Parallel
 * sweeps give every run its own model objects (and therefore its own
 * stats), and fold the sweep's aggregates from the per-run result
 * slots strictly after the lanes have joined.  Aggregating after the
 * join is the thread-safe path, and it keeps per-run updates free of
 * atomics on the simulator's hot paths.
 */

#ifndef RRS_STATS_STATS_HH
#define RRS_STATS_STATS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace rrs::stats {

class Group;

/**
 * Write `s` to `os` as a JSON string literal: surrounding quotes plus
 * the escapes the grammar requires (quote, backslash, \n \t \r, other
 * control characters as \uXXXX).  This is the one escaper every JSON
 * emitter in the tree should use — workload and scheme names are user
 * input (sweep matrices take arbitrary strings) and must survive a
 * jsonlite round trip.
 */
void jsonEscape(std::ostream &os, const std::string &s);

/** jsonEscape into a fresh string (for stream-free call sites). */
std::string jsonQuoted(const std::string &s);

/**
 * A double as a JSON number: full round-trip precision (%.17g), and
 * null for the non-finite values JSON cannot represent.  The one
 * number writer every JSON emitter in the tree should use; ledger node
 * keys format their parameters with it too, so its output is part of
 * every node digest.
 */
std::string jsonNumber(double v);

/** Base class for every statistic: a name, a description, a dump. */
class StatBase
{
  public:
    StatBase(Group *parent, std::string name, std::string desc,
             std::string unit = "");
    virtual ~StatBase() = default;

    StatBase(const StatBase &) = delete;
    StatBase &operator=(const StatBase &) = delete;

    const std::string &name() const { return statName; }
    const std::string &desc() const { return statDesc; }

    /**
     * Measurement unit ("insts", "cycles", "regs", ...); empty for
     * dimensionless counts and ratios.  Purely descriptive — it feeds
     * the schema dump, never arithmetic.
     */
    const std::string &unit() const { return statUnit; }

    /**
     * Metric kind for the machine-readable schema: "counter" for
     * monotonic scalars, "gauge" for sampled averages and
     * "distribution" for histograms.  Tools use this to decide
     * how a metric may be compared or aggregated without hard-coding
     * metric lists.
     */
    virtual const char *kind() const = 0;

    /**
     * Write this stat's schema entry as one JSON object:
     * {"kind": ..., "unit": ..., "desc": ...}.  Values only — the
     * caller writes the (dotted) name key.
     */
    void dumpSchema(std::ostream &os) const;

    /** Write "name value # desc" lines to the stream. */
    virtual void dump(std::ostream &os, const std::string &prefix) const = 0;

    /**
     * Write this stat as one JSON object (no trailing newline), e.g.
     * {"type": "scalar", "value": 42, "desc": "..."}.  Every field of
     * the text dump appears here too, so text and JSON reports carry
     * the same information.
     */
    virtual void dumpJson(std::ostream &os) const = 0;

    /** Reset to the freshly-constructed state. */
    virtual void reset() = 0;

  private:
    std::string statName;
    std::string statDesc;
    std::string statUnit;
};

/** Monotonic (or at least scalar) counter. */
class Scalar : public StatBase
{
  public:
    Scalar(Group *parent, std::string name, std::string desc,
           std::string unit = "")
        : StatBase(parent, std::move(name), std::move(desc),
                   std::move(unit)) {}

    const char *kind() const override { return "counter"; }

    Scalar &operator++() { ++val; return *this; }
    Scalar &operator+=(double v) { val += v; return *this; }
    Scalar &operator=(double v) { val = v; return *this; }

    double value() const { return val; }

    void dump(std::ostream &os, const std::string &prefix) const override;
    void dumpJson(std::ostream &os) const override;
    void reset() override { val = 0; }

  private:
    double val = 0;
};

/**
 * Arithmetic mean of sampled values (e.g. occupancy sampled each
 * cycle).  Also tracks min and max.
 */
class Average : public StatBase
{
  public:
    Average(Group *parent, std::string name, std::string desc,
            std::string unit = "")
        : StatBase(parent, std::move(name), std::move(desc),
                   std::move(unit)) {}

    const char *kind() const override { return "gauge"; }

    void
    sample(double v)
    {
        sum += v;
        ++n;
        if (n == 1 || v < minV)
            minV = v;
        if (n == 1 || v > maxV)
            maxV = v;
    }

    double mean() const { return n ? sum / static_cast<double>(n) : 0.0; }
    std::uint64_t samples() const { return n; }
    double min() const { return n ? minV : 0.0; }
    double max() const { return n ? maxV : 0.0; }

    void dump(std::ostream &os, const std::string &prefix) const override;
    void dumpJson(std::ostream &os) const override;
    void reset() override { sum = 0; n = 0; minV = 0; maxV = 0; }

  private:
    double sum = 0;
    std::uint64_t n = 0;
    double minV = 0;
    double maxV = 0;
};

/**
 * Sparse distribution over non-negative integer keys (e.g. "number of
 * consumers of a value": how many values had exactly k consumers).
 */
class Distribution : public StatBase
{
  public:
    Distribution(Group *parent, std::string name, std::string desc,
                 std::string unit = "")
        : StatBase(parent, std::move(name), std::move(desc),
                   std::move(unit)) {}

    const char *kind() const override { return "distribution"; }

    void sample(std::uint64_t key, std::uint64_t weight = 1)
    {
        counts[key] += weight;
        total += weight;
    }

    std::uint64_t count(std::uint64_t key) const
    {
        auto it = counts.find(key);
        return it == counts.end() ? 0 : it->second;
    }

    std::uint64_t samples() const { return total; }

    /** Fraction of samples with the exact key. */
    double fraction(std::uint64_t key) const
    {
        return total ? static_cast<double>(count(key)) /
                           static_cast<double>(total)
                     : 0.0;
    }

    double mean() const;

    /**
     * The p-th percentile (p in [0, 100]) of the sampled keys, with
     * linear interpolation between adjacent order statistics (the
     * numpy/"linear" convention): over the sorted multiset of samples
     * the rank is `p/100 * (total - 1)`, and a fractional rank
     * interpolates between the two bounding sample values.  An empty
     * distribution reports 0; a single sample reports itself for every
     * p.  Used by the phase profiler's per-run latency aggregates
     * (p50/p95/max).
     */
    double percentile(double p) const;

    /** Smallest sampled key (0 when empty). */
    std::uint64_t minKey() const
    {
        return counts.empty() ? 0 : counts.begin()->first;
    }

    /** Largest sampled key (0 when empty). */
    std::uint64_t maxKey() const
    {
        return counts.empty() ? 0 : counts.rbegin()->first;
    }

    const std::map<std::uint64_t, std::uint64_t> &raw() const
    {
        return counts;
    }

    void dump(std::ostream &os, const std::string &prefix) const override;
    void dumpJson(std::ostream &os) const override;
    void reset() override { counts.clear(); total = 0; }

  private:
    std::map<std::uint64_t, std::uint64_t> counts;
    std::uint64_t total = 0;
};

/**
 * A named collection of statistics.  Groups nest; dumping the root
 * dumps the whole tree with dotted prefixes (gem5 style).
 */
class Group
{
  public:
    explicit Group(std::string name, Group *parent = nullptr);
    virtual ~Group();

    Group(const Group &) = delete;
    Group &operator=(const Group &) = delete;

    const std::string &name() const { return groupName; }

    /** Dump this group and all children to a stream. */
    void dump(std::ostream &os, const std::string &prefix = "") const;

    /**
     * Dump this group and all children as one JSON object: each stat
     * maps its name to the object written by its dumpJson(), each
     * child group nests under its name.  Stat objects carry a "type"
     * field; group objects do not.  Ends with a newline at the top
     * level only when the caller adds one.
     */
    void dumpJson(std::ostream &os, int indent = 0) const;

    /**
     * Dump the metric schema of this group and all children as one
     * flat JSON object: every stat appears under its dotted path
     * (e.g. "core.rename.allocInt") mapping to
     * {"kind": ..., "unit": ..., "desc": ...}.  Walk order matches
     * dump(), so the schema is stable across runs and diffs cleanly.
     * The --stats-json export embeds it, so tools read this instead
     * of hard-coding metric lists.
     */
    void dumpSchema(std::ostream &os, int indent = 0) const;

    /** Reset all stats in this group and all children. */
    void resetStats();

  private:
    friend class StatBase;

    void addStat(StatBase *stat) { statList.push_back(stat); }
    void addChild(Group *g) { children.push_back(g); }
    void removeChild(Group *g);

    void dumpSchemaEntries(std::ostream &os, const std::string &prefix,
                           const std::string &pad, bool &first) const;

    std::string groupName;
    Group *parent;
    std::vector<StatBase *> statList;
    std::vector<Group *> children;
};

} // namespace rrs::stats

#endif // RRS_STATS_STATS_HH
