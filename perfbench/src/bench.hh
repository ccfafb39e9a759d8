/**
 * @file
 * Types and entry points shared by the parts of the rrbench program: the
 * cold set-up of a workload's inputs, the untraced and traced timed
 * passes, the standalone layer replays, the output checks and the
 * stored references.
 */

#ifndef RRBENCH_BENCH_HH
#define RRBENCH_BENCH_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "harness/sampling.hh"
#include "obs/stallcause.hh"
#include "plan.hh"

namespace rrbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Resident-set figures of this process from /proc, in MB. */
double residentMb();
double peakResidentMb();

/**
 * One span of the traced run.  Runs share their index as the id; set-up
 * steps carry run == -1 and their round.  Per-call layers (the renamer's
 * rename/commit/squash) are aggregated per run: `seconds` is the summed
 * call time and `calls` the number of calls.
 */
struct Span
{
    std::string name;
    std::string parent;
    long long run = -1;
    int round = -1;
    std::string what;      //!< run label or set-up input
    double start = 0;      //!< seconds since the log's origin
    double seconds = 0;
    std::uint64_t calls = 1;
};

/** In-memory span store, written out once the benchmark ends. */
class SpanLog
{
  public:
    SpanLog() : origin(Clock::now()) {}

    double now() const { return secondsSince(origin); }
    void add(Span s) { list.push_back(std::move(s)); }
    const std::vector<Span> &spans() const { return list; }

    /** Write every span as one JSON document; fatal on I/O errors. */
    void write(const std::string &path) const;

  private:
    Clock::time_point origin;
    std::vector<Span> list;
};

/** Host time of one cold set-up round, split by step. */
struct SetupTimes
{
    double assemble = 0;   //!< assembling every kernel
    double capture = 0;    //!< functional emulation into records
    double pack = 0;       //!< building the packed columns
    double generate = 0;   //!< draining + digesting synthetic streams
    std::uint64_t records = 0;

    double total() const { return assemble + capture + pack + generate; }
};

/**
 * Cold set-up of every input a plan's runs consume: assemble, capture
 * and pack each kernel trace, or generate and digest each synthetic
 * stream.  With `keep` the kernel traces are published in the process
 * trace cache (harness::traceCache()) for the timed phase; otherwise
 * they are dropped.  `digests` receives one content digest per input.
 */
SetupTimes setupRound(const Plan &plan, bool keep, int round,
                      SpanLog *log, std::vector<std::uint64_t> *digests);

/** What one run reports, from either path. */
struct RunOutcome
{
    rrs::core::SimResult sim;
    rrs::obs::StallBreakdown stalls;
    rrs::harness::SampledSummary sampled;
    double mispredicts = 0;
    double wallSeconds = 0;

    double ipc() const
    {
        return sampled.enabled ? sampled.meanIpc : sim.ipc();
    }
};

/** One untraced pass over every run of a plan. */
struct Pass
{
    std::vector<RunOutcome> runs;
    double wallSeconds = 0;
    std::uint64_t captureMisses = 0;   //!< trace-cache misses while timed
};

/**
 * The untraced timed pass: kernel workloads through the sweep engine on
 * one lane, synthetic streams through the same rig abl_synthetic builds.
 */
Pass untracedPass(const Plan &plan);

/** Renamer call counts and times of one traced run. */
struct RenamerCounts
{
    std::uint64_t renameCalls = 0;
    std::uint64_t renameStalls = 0;   //!< calls that returned !success
    std::uint64_t renamed = 0;        //!< successful calls
    std::uint64_t dests = 0;          //!< successful calls with a dest
    std::uint64_t reused = 0;
    std::uint64_t repairs = 0;
    std::uint64_t commitCalls = 0;
    std::uint64_t squashCalls = 0;
    std::uint64_t recoverCmds = 0;
    std::uint64_t renameTicks = 0;    //!< summed call time, in ticks()
    std::uint64_t commitTicks = 0;
    std::uint64_t squashTicks = 0;
    double renameSeconds = 0;         //!< the same, converted by the pass
    double commitSeconds = 0;
    double squashSeconds = 0;

    double seconds() const
    {
        return renameSeconds + commitSeconds + squashSeconds;
    }

    RenamerCounts &operator+=(const RenamerCounts &o);
};

/** A traced pass: outcomes plus per-run layer times. */
struct TracedPass
{
    std::vector<RunOutcome> runs;
    std::vector<RenamerCounts> renamer;
    std::vector<double> simulateSeconds;   //!< core.run() / controller
    double wallSeconds = 0;
};

/**
 * The traced pass: every run rebuilt from the library's public pieces
 * with the renamer behind a timing decorator, spans kept in `log`.
 */
TracedPass tracedPass(const Plan &plan, int pass, SpanLog &log);

/** Standalone replay of a workload's records through mem and bpred. */
struct LayerReplay
{
    std::uint64_t records = 0;
    std::uint64_t fetches = 0;
    std::uint64_t dataAccesses = 0;
    double fetchSeconds = 0;
    double dataSeconds = 0;
    double l1iMissRatio = 0;
    double l1dMissRatio = 0;
    double l2MissRatio = 0;
    double tlbMissRatio = 0;

    std::uint64_t branches = 0;
    std::uint64_t condBranches = 0;
    std::uint64_t condCorrect = 0;
    std::uint64_t btbLookups = 0;   //!< uncond, call and indirect
    std::uint64_t btbMisses = 0;
    double bpredSeconds = 0;

    /** Host seconds of one functional-warm record (mem + bpred). */
    double warmSecondsPerRecord() const
    {
        return records ? (fetchSeconds + dataSeconds + bpredSeconds) /
                             static_cast<double>(records)
                       : 0.0;
    }
};

LayerReplay replayLayers(const Plan &plan);

/** Host ns per record of draining the plan's synthetic streams. */
double synthNsPerRecord(const Plan &plan);

/** Failed output checks, one line per failure. */
struct CheckLog
{
    std::uint64_t attempted = 0;
    std::vector<std::string> failures;
    std::uint64_t failedRuns = 0;

    void fail(const std::string &what) { failures.push_back(what); }
};

/** The (insts, cycles, ops) of every run of a pass. */
std::vector<rrs::core::SimResult> sims(const std::vector<RunOutcome> &runs);

/**
 * Output checks of one pass, counted per run: each run committed (or,
 * sampled, accounted for) its whole stream, its stall causes sum to its
 * cycles, a sampled run measured windows within its schedule, and, with
 * `expect`, it matches the expected (insts, cycles) exactly.
 */
void checkPass(const Plan &plan, const std::vector<RunOutcome> &runs,
               const std::vector<rrs::core::SimResult> *expect,
               const std::string &expectName, const std::string &pass,
               CheckLog &log);

/** Stored exact results of a plan's runs (perfbench/reference/). */
struct Reference
{
    std::vector<rrs::core::SimResult> runs;   //!< in plan order
};

/** Default reference file of a workload. */
std::string referencePath(const std::string &workload);

/**
 * Parse a reference for a plan.  Every key (workload, seed, cap, and per
 * run kernel, source hash, scheme, size and stream length) must match
 * the plan; otherwise `error` names the first stale field and the call
 * returns false.
 */
bool parseReference(const std::string &text, const Plan &plan,
                    Reference &out, std::string &error);

/** Read and parse a reference file; fatal when missing, invalid or stale. */
Reference loadReference(const std::string &path, const Plan &plan);

/** Write a plan's exact results as its reference. */
void writeReference(const std::string &path, const Plan &plan,
                    const std::vector<rrs::core::SimResult> &exact);

/** One reported metric. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0;
};

/**
 * Print the human-readable table and, as the last line, the result
 * object {"correct", "attempted", "failed", "metrics"}.
 */
void printResult(const CheckLog &checks,
                 const std::vector<Metric> &metrics,
                 const std::vector<Metric> &extra);

/** Median and linear-interpolated percentile of a sample. */
double median(std::vector<double> v);
double percentile(std::vector<double> v, double p);

/** Smallest value of a non-empty sample. */
inline double
minimum(const std::vector<double> &v)
{
    return *std::min_element(v.begin(), v.end());
}

} // namespace rrbench

#endif // RRBENCH_BENCH_HH
