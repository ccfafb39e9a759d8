/**
 * @file
 * Host-side phase profiler: where does the *simulator's own* wall
 * clock go?  The target-side instruments (pipetrace, stall
 * attribution) explain simulated cycles; this one explains host
 * seconds, the way simulator-evaluation studies report capture /
 * warmup / simulate breakdowns as first-class metrics.
 *
 * Usage: wrap a region in a RAII `ScopedPhase("name")`.  Phases nest
 * into a tree ("capture" > "warmup"), each node accumulating entry
 * count and monotonic-clock seconds.  Everything is off unless
 * `RRS_PROF=1` (or `--prof` on a bench, or `Profiler::setEnabled`);
 * when off, a ScopedPhase costs exactly one branch on a cached bool —
 * cheap enough to leave in the hot harness paths permanently.
 *
 * Threading model (mirrors the sweep's merge-after-join):
 *
 *  - Phases recorded on a thread land in that thread's own tree; no
 *    phase mutation is ever shared between running threads.
 *  - A sweep lane is *bound* to a per-run tree (`Profiler::Bind`) for
 *    the duration of each run; the runner merges the run trees after
 *    the pool has joined, in submission order, so the merged counts —
 *    and the order of FP additions — are identical for every
 *    `RRS_THREADS` value, exactly like the sweep's Outcomes.
 *  - Unbound threads (the main thread, analysis pool workers) record
 *    into registered thread-local trees that report() folds together;
 *    report() must only run while no profiled work is in flight.
 *
 * Per-run latency aggregates: each merged run tree also records every
 * phase path's per-run total (in microseconds), so the report carries
 * p50/p95/max per-run latencies computed with stats::percentile().
 */

#ifndef RRS_OBS_PROFILER_HH
#define RRS_OBS_PROFILER_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace rrs::obs {

namespace detail {
/** The cached enable flag ScopedPhase branches on. */
extern bool profilerEnabled;
} // namespace detail

/** One phase in a tree: entry count + accumulated seconds. */
struct PhaseNode
{
    std::string name;
    std::uint64_t count = 0;
    double seconds = 0;
    /** Children ordered by first entry (stable within one tree). */
    std::vector<std::unique_ptr<PhaseNode>> children;

    /** Find-or-create a child (by name). */
    PhaseNode *child(std::string_view childName);

    /** Find a child; nullptr when absent (tests, reporting). */
    const PhaseNode *find(std::string_view childName) const;

    /** Sum of the direct children's seconds. */
    double childSeconds() const;

    /** Fold `other`'s counts/seconds/children into this node. */
    void merge(const PhaseNode &other);

    /** Drop all data (keeps the name). */
    void clear();
};

/**
 * One thread's (or one sweep run's) phase tree plus its entry stack.
 * Not thread-safe: each tree belongs to exactly one running thread at
 * a time (enforced by the Bind discipline).
 */
class PhaseTree
{
  public:
    PhaseTree() { rootNode.name = "root"; }

    /** Enter a phase (child of the current one). @return the node. */
    PhaseNode *enter(std::string_view name);

    /** Leave the current phase, charging it `seconds`. */
    void leave(double seconds);

    const PhaseNode &root() const { return rootNode; }
    bool atRoot() const { return stack.empty(); }
    void clear();

  private:
    PhaseNode rootNode;
    std::vector<PhaseNode *> stack;
};

/**
 * The process-wide profiler: owns the merged result trees and the
 * per-run latency aggregates.
 */
class Profiler
{
  public:
    /** The one cached-bool branch every ScopedPhase pays when off. */
    static bool enabled() { return detail::profilerEnabled; }

    /** Flip at runtime (bench --prof, tests).  Not thread-safe: set
     *  before profiled work starts. */
    static void setEnabled(bool on);

    static Profiler &instance();

    /**
     * RAII binding of the calling thread's ScopedPhases to `tree`
     * (e.g. a sweep run's own tree).  nullptr is a no-op binding.
     * Restores the previous binding on destruction.
     */
    class Bind
    {
      public:
        explicit Bind(PhaseTree *tree);
        ~Bind();
        Bind(const Bind &) = delete;
        Bind &operator=(const Bind &) = delete;

      private:
        PhaseTree *prev;
        bool bound;
    };

    /** The tree the calling thread currently records into. */
    static PhaseTree &currentTree();

    /**
     * Merge one finished sweep-run tree: fold its structure into the
     * run aggregate and sample each phase path's per-run seconds into
     * the latency distributions.  Call post-join, in submission order,
     * from one thread (the sweep caller).
     */
    void addRunTree(const PhaseTree &tree);

    /** Merged per-run phase aggregate ("run" root). */
    const PhaseNode &runTree() const { return runMerged; }

    /** Number of run trees merged so far. */
    std::uint64_t runsMerged() const { return runCount; }

    /** Per-run latency percentile of a phase path, microseconds. */
    double runPercentileUs(const std::string &path, double p) const;

    /**
     * Snapshot of the host-side tree: every registered thread tree
     * (main thread first, then registration order) folded into one.
     * Quiescence required, as for report().
     */
    PhaseNode hostTree() const;

    /**
     * Print the human report: the host phase tree, then the per-run
     * phase table (count, total seconds, p50/p95/max per-run µs).
     */
    void report(std::ostream &os) const;

    /** Drop all recorded data (tests; not thread-safe vs recording). */
    void reset();

    // Thread-tree registry (used by the thread_local plumbing).
    void registerThreadTree(PhaseTree *tree);
    void unregisterThreadTree(PhaseTree *tree);

  private:
    Profiler();

    struct RunPhaseAgg
    {
        std::uint64_t count = 0;     //!< phase entries across runs
        double seconds = 0;          //!< total seconds across runs
        std::vector<std::uint64_t> perRunUs;   //!< one per run tree
    };

    void collectRunAggregates(const PhaseNode &node,
                              const std::string &prefix);

    mutable std::mutex mu;
    std::vector<PhaseTree *> threadTrees;   //!< registration order
    PhaseNode retired;                      //!< trees of exited threads
    PhaseNode runMerged;                    //!< per-run merge (post-join)
    std::uint64_t runCount = 0;
    std::map<std::string, RunPhaseAgg> runAgg;   //!< by phase path
};

/**
 * RAII phase marker.  When the profiler is disabled the constructor is
 * one branch and the destructor another; nothing is recorded.
 * The name must outlive the scope (string literals).
 */
class ScopedPhase
{
  public:
    explicit ScopedPhase(const char *name)
    {
        if (!Profiler::enabled())
            return;
        begin(name);
    }

    ~ScopedPhase()
    {
        if (tree)
            end();
    }

    ScopedPhase(const ScopedPhase &) = delete;
    ScopedPhase &operator=(const ScopedPhase &) = delete;

  private:
    void begin(const char *name);
    void end();

    PhaseTree *tree = nullptr;
    std::chrono::steady_clock::time_point t0;
};

} // namespace rrs::obs

#endif // RRS_OBS_PROFILER_HH
