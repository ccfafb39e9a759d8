/**
 * @file
 * Core (pipeline) configuration, defaulting to the paper's Table I:
 * 2.0 GHz ARMv8-like core, 128-entry ROB, 40-entry issue queue,
 * 3-wide decode/dispatch, 32-instruction fetch queue, 15-cycle
 * misprediction penalty.
 */

#ifndef RRS_CORE_PARAMS_HH
#define RRS_CORE_PARAMS_HH

#include <cstdint>

#include "common/types.hh"
#include "isa/isa.hh"

namespace rrs::core {

/** Functional-unit pool sizes and operation latencies. */
struct FuParams
{
    std::uint32_t intAlu = 3;
    std::uint32_t intMulDiv = 1;
    std::uint32_t fpAlu = 2;
    std::uint32_t fpMulDiv = 1;
    std::uint32_t memPorts = 2;

    Cycles intAluLat = 1;
    Cycles intMultLat = 4;
    Cycles intDivLat = 12;       //!< unpipelined
    Cycles fpAluLat = 4;         //!< ARM-class FP add/sub latency
    Cycles fpMultLat = 5;
    Cycles fpDivLat = 18;        //!< unpipelined
    Cycles storeLat = 1;         //!< address generation
    Cycles forwardLat = 1;       //!< store-to-load forwarding
    Cycles wrongPathLoadLat = 2; //!< wrong-path loads skip the caches
};

/** Pipeline geometry and penalties (Table I defaults). */
struct CoreParams
{
    std::uint32_t fetchWidth = 3;
    std::uint32_t renameWidth = 3;
    std::uint32_t issueWidth = 6;
    std::uint32_t wbWidth = 6;
    std::uint32_t commitWidth = 3;

    std::uint32_t robEntries = 128;
    std::uint32_t iqEntries = 40;
    std::uint32_t fetchQueueEntries = 32;
    std::uint32_t loadQueueEntries = 32;
    std::uint32_t storeQueueEntries = 24;

    Cycles mispredictPenalty = 15;   //!< redirect penalty (Table I)
    Cycles exceptionPenalty = 30;    //!< flush + handler entry overhead
    Cycles recoverCmdCycles = 1;     //!< per shadow-cell recover command

    FuParams fu;

    /** Wrong-path synthesis on mispredicted branches. */
    bool modelWrongPath = true;

    /**
     * Fault injection: probability that a correct-path load raises a
     * page-fault-style exception at commit (exercises the
     * precise-exception recovery path).  0 disables.
     */
    double loadFaultProbability = 0.0;

    /** Timer-interrupt interval in cycles (0 disables). */
    Cycles interruptInterval = 0;
    Cycles interruptServiceCycles = 50;

    std::uint64_t seed = 12345;      //!< fault/wrong-path RNG seed

    /** Stop after this many committed instructions (0: run stream). */
    std::uint64_t maxInsts = 0;

    /** Deadlock detector: panic after this many commit-less cycles. */
    Cycles deadlockThreshold = 200000;
};

/** Per-run timing results. */
struct SimResult
{
    std::uint64_t cycles = 0;
    std::uint64_t committedInsts = 0;
    std::uint64_t committedOps = 0;    //!< includes repair micro-ops

    double
    ipc() const
    {
        return cycles ? static_cast<double>(committedInsts) /
                            static_cast<double>(cycles)
                      : 0.0;
    }
};

} // namespace rrs::core

#endif // RRS_CORE_PARAMS_HH
