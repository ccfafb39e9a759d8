/**
 * @file
 * Offline value-usage analysis over a captured instruction trace.
 * Computes the paper's motivation statistics:
 *
 *  - Figure 1: fraction of dest-writing instructions that are the *only*
 *    consumer of one of their source values, split by whether they also
 *    redefine that source's logical register.
 *  - Figure 2: distribution of consumers per produced value.
 *  - Figure 3: fraction of dest-writing instructions that could reuse a
 *    physical register under reuse-chain caps of 1, 2, 3 and unlimited.
 *
 * The analysis is an *oracle* study (it sees the whole window), exactly
 * like the paper's motivation section; the timing model implements the
 * realisable mechanism separately.
 */

#ifndef RRS_TRACE_ANALYSIS_HH
#define RRS_TRACE_ANALYSIS_HH

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace/recorded.hh"

namespace rrs::trace {

/** Results of a value-usage analysis run. */
struct UsageReport
{
    std::string workload;
    std::uint64_t totalInsts = 0;
    std::uint64_t destInsts = 0;       //!< instructions writing a register

    // Figure 1 numerators (instruction granularity, deduped).
    std::uint64_t singleConsumerRedef = 0;
    std::uint64_t singleConsumerOther = 0;

    // Figure 2: consumers-per-value histogram; key 6 aggregates "6+".
    std::map<std::uint64_t, std::uint64_t> consumersPerValue;
    std::uint64_t valuesClosed = 0;
    std::uint64_t valuesConsumed = 0;  //!< values with >= 1 consumer

    // Figure 3: dest-writing instructions that avoid an allocation under
    // reuse caps 1, 2, 3, unlimited (indices 0..3).
    std::array<std::uint64_t, 4> reusable{};

    /** Fraction helpers over all instructions (Fig 1 convention). */
    double fracSingleConsumerRedef() const;
    double fracSingleConsumerOther() const;
    double fracSingleConsumer() const;

    /** Fig 2: fraction of consumed values read exactly k times (k<=5),
     *  or >= 6 for k == 6. */
    double fracConsumers(std::uint64_t k) const;

    /** Fig 3: fraction of dest-writing instructions that avoid an
     *  allocation under cap index 0..3 (1, 2, 3, unlimited). */
    double fracReusable(int capIndex) const;

    /** Fig 3 exact-chain-length decomposition: fraction of dest-writing
     *  instructions whose unlimited-cap reuse sits at chain depth d
     *  (1-based); d == 4 aggregates ">3". */
    std::array<double, 4> reuseDepthBreakdown() const;

    std::array<std::uint64_t, 4> reuseDepthCounts{};
};

/**
 * Analyse every record of a captured trace; its cap is the window.
 * Memory cost is O(records) with small constants, so keep windows in
 * the low tens of millions.
 */
UsageReport analyzeUsage(const RecordedTrace &trace);

} // namespace rrs::trace

#endif // RRS_TRACE_ANALYSIS_HH
