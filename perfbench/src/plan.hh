/**
 * @file
 * The benchmark's three workloads, expanded into run lists.
 *
 *  - exact_fig11: every kernel x {baseline, reuse} x the seven Table III
 *    sizes, exact mode, 20k-instruction streams (the capped fig11 CI
 *    sweep, 294 runs).
 *  - sampled_long: every kernel at its full default stream x both
 *    schemes x three sizes, SMARTS sampled mode on a sparse schedule
 *    (126 runs).
 *  - synthetic_sweep: seed-generated SyntheticStream inputs with the
 *    single-use fraction swept 0.0-0.8 x both schemes x the seven sizes
 *    (126 runs), on the live, unpacked stream path.
 *
 * Runs are ordered input-major, then size, then scheme, exactly like
 * harness::expandSweepMatrix, so run i of exact_fig11 at the default
 * seed is run i of `fig11_ipc --cap 20000`.  Run i's core seed is
 * harness::sweepSeed(seed, i), as the sweep engine derives it.
 */

#ifndef RRBENCH_PLAN_HH
#define RRBENCH_PLAN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "trace/synthetic.hh"
#include "workloads/workloads.hh"

namespace rrbench {

/** Seed the repository's own sweeps use (CoreParams::seed default). */
constexpr std::uint64_t defaultSeed = 12345;

enum class WorkloadKind { ExactFig11, SampledLong, SyntheticSweep };

/** One simulation run of a workload. */
struct RunSpec
{
    const rrs::workloads::Workload *kernel = nullptr;  //!< null: synthetic
    std::size_t fraction = 0;   //!< synthetic: index into Plan::synth
    std::uint32_t size = 0;     //!< baseline-equivalent register count
    /**
     * The run's configuration.  core.seed is the workload's base seed;
     * the run itself simulates with Plan::runSeed(i), as a sweep does.
     */
    rrs::harness::RunConfig config;
};

/** A workload expanded for one seed. */
struct Plan
{
    WorkloadKind kind = WorkloadKind::ExactFig11;
    std::string name;
    std::uint64_t seed = defaultSeed;

    /** Kernel workloads: the kernels and their stream cap (0: default). */
    std::vector<const rrs::workloads::Workload *> kernels;
    std::uint64_t cap = 0;

    /** synthetic_sweep: one generator setting per single-use fraction. */
    std::vector<rrs::trace::SyntheticParams> synth;

    std::vector<std::uint32_t> sizes;
    std::vector<RunSpec> runs;

    /** Cold set-ups per invocation; setup_s is the fastest. */
    unsigned setupRounds = 3;

    /**
     * Nominal host seconds of one untraced pass, as measured at the
     * commit that defined the benchmark (4-vCPU x86-64 VM, Release).  It
     * fixes how many passes a run makes, whatever the code's speed.
     */
    double passSeconds = 1;

    /** Timed passes that fit `seconds` at the nominal pass time (>= 1). */
    unsigned passesFor(double seconds) const;

    bool sampled() const { return kind == WorkloadKind::SampledLong; }
    bool synthetic() const { return kind == WorkloadKind::SyntheticSweep; }

    /** Human-readable identity of run i, e.g. "int_sort/reuse/48". */
    std::string label(std::size_t i) const;

    /** Core seed of run i: harness::sweepSeed(base, i). */
    std::uint64_t runSeed(std::size_t i) const;

    /**
     * Instructions run i must account for: its whole input stream.  A
     * kernel may end before its cap, so this is the captured trace's
     * length (captured into the trace cache on first use).
     */
    std::uint64_t streamLength(std::size_t i) const;
};

/** The workload names, in canonical order. */
const std::vector<std::string> &workloadNames();

/** Expand a workload for a seed; fatal on an unknown name. */
Plan makePlan(const std::string &name, std::uint64_t seed);

} // namespace rrbench

#endif // RRBENCH_PLAN_HH
