/**
 * @file
 * Synthetic dynamic-instruction stream with controllable value-usage
 * statistics.  Used for property tests and for the ablation bench that
 * sweeps the single-use fraction directly (something no fixed workload
 * can do).
 *
 * The generator maintains a plausible machine-like structure: a
 * synthetic code footprint (so I-cache and branch predictor behaviour
 * is sane), strided + random data addresses, and register dataflow in
 * which a configurable fraction of produced values is consumed exactly
 * once by the next dependent instruction.
 */

#ifndef RRS_TRACE_SYNTHETIC_HH
#define RRS_TRACE_SYNTHETIC_HH

#include "common/random.hh"
#include "trace/recorded.hh"

namespace rrs::trace {

/** Knobs for the synthetic stream. */
struct SyntheticParams
{
    std::uint64_t seed = 1;
    std::uint64_t numInsts = 1'000'000;

    double fpFraction = 0.3;       //!< fraction of FP compute ops
    double loadFraction = 0.2;     //!< fraction of loads
    double storeFraction = 0.1;    //!< fraction of stores
    double branchFraction = 0.12;  //!< fraction of conditional branches
    double takenFraction = 0.6;    //!< taken rate of those branches

    /**
     * Probability that a newly produced value is consumed exactly once,
     * by the next instruction that uses it as a source (single-use).
     */
    double singleUseFraction = 0.4;

    /**
     * Among single-use consumers, probability that the consumer also
     * redefines the source's logical register (the paper's guaranteed
     * no-younger-consumer case).
     */
    double redefFraction = 0.6;

    /** Distinct static instructions (code footprint / 4 bytes). */
    std::uint32_t staticFootprint = 4096;

    /** Data working-set size in bytes. */
    std::uint64_t dataFootprint = 1 << 20;
};

/** The generator; implements InstStream. */
class SyntheticStream : public InstStream
{
  public:
    explicit SyntheticStream(SyntheticParams params);

    std::optional<DynInst> next() override;

  private:
    isa::RegId pickSource(RegClass cls);
    isa::RegId pickDest(RegClass cls, bool &madeSingleUse);

    SyntheticParams params;
    Random rng;
    std::uint64_t emitted = 0;
    Addr pc;
    Addr stride = 0;

    /**
     * Single-use plumbing: when the previous instruction's dest was
     * selected for single-use, the next compatible instruction must
     * consume it (once) and then the register is redefined.
     */
    struct PendingSingleUse
    {
        bool valid = false;
        isa::RegId reg;
        bool redefine = false;
    };
    PendingSingleUse pending[numRegClasses];
};

/** The generator's records as a trace named "synthetic", cap numInsts. */
TracePtr captureSynthetic(const SyntheticParams &params);

} // namespace rrs::trace

#endif // RRS_TRACE_SYNTHETIC_HH
