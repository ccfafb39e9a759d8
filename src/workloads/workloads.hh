/**
 * @file
 * The workload suite: assembly kernels standing in for the paper's
 * benchmarks (Section V-B).  SPEC CPU2006, Mediabench and the GMM/DNN
 * cognitive kernels are not redistributable, so each suite is replaced
 * by kernels with the same *microarchitectural* character:
 *
 *  - "specint": integer codes — sorting, hashing, CRC, sieving, string
 *    matching, graph traversal.  Branchy, pointer/index heavy, modest
 *    single-use fractions (paper: >30% single-consumer values).
 *  - "specfp": floating-point loop nests — dense matmul, FIR, Jacobi
 *    stencil, n-body, Horner evaluation, blocked vector chains.  Long
 *    dependence chains, high single-use fractions (paper: >50%).
 *  - "media": Mediabench-style fixed-point signal processing — ADPCM
 *    encode, 8x8 DCT, Sobel edge detection.
 *  - "cognitive": GMM acoustic-scoring distance kernel and a dense DNN
 *    layer with ReLU.
 *
 * Every kernel initialises its own data (with a deterministic LCG where
 * it needs pseudo-random input), runs a bounded outer loop, and
 * accumulates a checksum so the whole computation is live.
 */

#ifndef RRS_WORKLOADS_WORKLOADS_HH
#define RRS_WORKLOADS_WORKLOADS_HH

#include <memory>
#include <string>
#include <vector>

#include "emu/emulator.hh"
#include "isa/program.hh"
#include "trace/recorded.hh"

namespace rrs::workloads {

/** A registered workload. */
struct Workload
{
    std::string name;        //!< e.g. "fp_matmul"
    std::string suite;       //!< "specint", "specfp", "media", "cognitive"
    const char *source;      //!< assembly text
    std::uint64_t defaultMaxInsts;   //!< stream cap for timing runs
};

/** All registered workloads, in suite order. */
const std::vector<Workload> &allWorkloads();

/** Workloads of one suite. */
std::vector<Workload> suiteWorkloads(const std::string &suite);

/** Find a workload by name (fatal if unknown). */
const Workload &workload(const std::string &name);

/** Assemble a workload (cached) and return its program. */
const isa::Program &program(const Workload &w);

/**
 * Hash of a workload's assembly source (FNV-1a).  Stamped into every
 * RecordedTrace and into every ledger node's identity, so results from
 * a changed kernel source are told apart from current ones.
 */
std::uint64_t sourceHash(const Workload &w);

/** The stream cap a maxInsts request resolves to (0 -> the default). */
inline std::uint64_t
resolvedCap(const Workload &w, std::uint64_t maxInsts)
{
    return maxInsts == 0 ? w.defaultMaxInsts : maxInsts;
}

/**
 * Create a live functional emulator for a workload, fast-forwarded
 * past its warmup phase and capped at `maxInsts` post-warmup
 * instructions (0: workload default).  Use this when architectural
 * state matters (oracle tests, emulator microbenchmarks); timing runs
 * should replay a captured trace (captureTrace, or the harness trace
 * cache) instead.
 */
std::unique_ptr<emu::Emulator> makeEmulator(const Workload &w,
                                            std::uint64_t maxInsts = 0);

/**
 * Capture the post-warmup dynamic instruction stream of a workload
 * into an immutable, shareable trace.  The capture steps the functional
 * emulator once, appending each record straight to the trace's columns;
 * replaying the returned trace is bit-identical to pulling the emulator
 * live.
 */
trace::TracePtr captureTrace(const Workload &w,
                             std::uint64_t maxInsts = 0);

/** Suite names in canonical order. */
const std::vector<std::string> &suiteNames();

} // namespace rrs::workloads

#endif // RRS_WORKLOADS_WORKLOADS_HH
