/**
 * @file
 * SMARTS-style sampled simulation (DESIGN §4i).
 *
 * A SamplingController drives one long-lived O3Core through
 * alternating *functional-warm* spans and *detailed* windows over a
 * ReplayStream:
 *
 *  - functional warm: the span's records advance branch-predictor and
 *    cache state directly from the pre-decoded trace columns — one
 *    predict/train round per control instruction, one cache access
 *    per new fetch line and per load/store — with no per-cycle
 *    pipeline work at all;
 *  - detailed: the full pipeline runs for a fixed instruction budget.
 *    The first `fillInsts` of each window are simulated but not
 *    measured (pipeline-fill bias); the rest contribute one IPC
 *    sample per window;
 *  - fast-forward: the remainder of each period is functionally warmed
 *    too (SMARTS always-on warming).  Only the pipeline is ever
 *    skipped — a cold cursor jump would age the caches out from under
 *    every later window and bias its IPC down by however far the
 *    working set moved during the gap.
 *
 * Windows aggregate into an instruction-weighted mean IPC (the same
 * insts/cycles semantics as an exact run) with a per-window sample
 * stddev and a 95% confidence interval (1.96 * s / sqrt(n)), floored
 * at `ciFloorPct` percent of the mean to absorb the systematic warm-up
 * bias analytic CIs cannot see.  Exact mode never constructs a
 * controller: with SamplingParams::enabled() false the harness calls
 * core.run() on the identical code path as before, bit for bit.
 */

#ifndef RRS_HARNESS_SAMPLING_HH
#define RRS_HARNESS_SAMPLING_HH

#include <cstdint>

#include "core/o3core.hh"
// Nothing here uses stats/stats.hh.  perfbench/src/checks.cc calls
// stats::jsonQuoted and reaches the header only through this include;
// ROADMAP item 10 moves the include into checks.cc and drops this one.
#include "stats/stats.hh"
#include "trace/recorded.hh"

namespace rrs::harness {

/** Sampled-simulation configuration (all-zero = exact mode). */
struct SamplingParams
{
    std::uint64_t warm = 0;      //!< functional-warm insts per period
    std::uint64_t detailed = 0;  //!< detailed insts per period (incl. fill)
    std::uint64_t period = 0;    //!< total insts per period

    /**
     * Unmeasured detailed prefix per window: simulated through the
     * full pipeline so queues and in-flight misses reach steady state,
     * excluded from the window's IPC sample.  Defaults to twice the
     * default ROB depth.
     */
    std::uint64_t fillInsts = 256;

    /**
     * Reported-CI floor, percent of the mean.  Analytic CIs collapse
     * toward zero on homogeneous kernels (every window measures the
     * same loop), but the warm-up bias does not; the floor keeps the
     * reported interval honest.
     */
    double ciFloorPct = 2.0;

    /** Sampling on?  False = exact mode, byte-identical to seed. */
    bool enabled() const { return detailed > 0 && period > 0; }
};

/**
 * The sampling schedule rule, for every parser and the controller:
 * the clause `p` breaks, or nullptr when it is runnable.
 */
const char *samplingScheduleError(const SamplingParams &p);

/** What a sampled run reports on top of its detailed aggregates. */
struct SampledSummary
{
    bool enabled = false;
    std::uint64_t windows = 0;       //!< measured IPC samples
    double meanIpc = 0;
    double stddevIpc = 0;            //!< sample stddev across windows
    double ci95Ipc = 0;              //!< max(1.96*s/sqrt(n), floor)
    double medianIpc = 0;            //!< stats::percentile, 1e-4 units
    std::uint64_t detailedInsts = 0; //!< simulated in detail (incl. fill)
    std::uint64_t detailedCycles = 0;
    std::uint64_t warmInsts = 0;     //!< functionally warmed pre-window
    std::uint64_t skippedInsts = 0;  //!< fast-forwarded (warmed, no pipeline)

    /** Fraction of the trace simulated in detail (the <=25% contract). */
    double
    detailedFraction() const
    {
        const std::uint64_t total =
            detailedInsts + warmInsts + skippedInsts;
        return total ? static_cast<double>(detailedInsts) /
                           static_cast<double>(total)
                     : 0.0;
    }
};

/**
 * Drives one core/stream rig through the warm/detailed/fast-forward
 * schedule.
 * The rig (core, stream, and the memory system + branch predictor the
 * core was built around) outlives every window: caches and predictor
 * tables are state being *warmed*, never reset between windows.
 */
class SamplingController
{
  public:
    SamplingController(const SamplingParams &params, core::O3Core &core,
                       trace::ReplayStream &stream,
                       mem::MemSystem &mem, bpred::BranchPredictor &bp);

    /**
     * Run the whole trace through the schedule.  A trace of n <= warm
     * records warms only its first n - detailed (none when n <=
     * detailed), so it still measures one window.
     * @param aggregate filled with the detailed-portion totals
     *        (committed insts/ops, window-cycle sum) so existing
     *        Outcome consumers keep seeing consistent numbers.
     */
    SampledSummary run(core::SimResult &aggregate);

  private:
    /** Functional-warm records [from, to) of the packed trace. */
    void warmSpan(std::size_t from, std::size_t to);

    const SamplingParams &params;
    core::O3Core &core;
    trace::ReplayStream &stream;
    mem::MemSystem &mem;
    bpred::BranchPredictor &bp;
};

} // namespace rrs::harness

#endif // RRS_HARNESS_SAMPLING_HH
