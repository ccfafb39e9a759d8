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

/** Assemble a workload (cached by name; fatal on a second source). */
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
 * Create a functional emulator for a workload, fast-forwarded past its
 * warmup phase and capped at `maxInsts` post-warmup instructions (0:
 * workload default).  Capture steps it; tests and the emulator
 * microbenchmark read its architectural state.  Timing runs replay a
 * captured trace (captureTrace, or the harness trace cache).
 */
std::unique_ptr<emu::Emulator> makeEmulator(const Workload &w,
                                            std::uint64_t maxInsts = 0);

/**
 * Step `e` through its next `cap` instructions (fewer if it halts)
 * into a trace named `workload`: the one loop every program's trace
 * comes from, examples' and tests' included.
 */
trace::TracePtr capture(emu::Emulator &e, std::string workload,
                        std::uint64_t cap, std::uint64_t sourceHash = 0);

/**
 * A workload's post-warmup stream as a shareable trace: capture() over
 * makeEmulator.  Replaying it is bit-identical to stepping the emulator.
 */
trace::TracePtr captureTrace(const Workload &w,
                             std::uint64_t maxInsts = 0);

/** Suite names in canonical order. */
const std::vector<std::string> &suiteNames();

} // namespace rrs::workloads

#endif // RRS_WORKLOADS_WORKLOADS_HH
