#include "analysis.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"

namespace rrs::trace {

namespace {

constexpr std::uint32_t none32 = std::numeric_limits<std::uint32_t>::max();

/** An open (not yet redefined) architectural value. */
struct OpenValue
{
    std::uint32_t producer = none32;   //!< index in window, none if live-in
    std::uint32_t readers = 0;         //!< distinct consuming instructions
    std::uint32_t firstReader = none32;
    bool firstReaderRedefines = false;
};

/** Per-instruction flags filled during attribution. */
struct InstRecord
{
    bool hasDest = false;
    bool soleConsumerRedef = false;
    bool soleConsumerOther = false;
    std::uint32_t reuseSrcProducer = none32;
};

} // namespace

double
UsageReport::fracSingleConsumerRedef() const
{
    return totalInsts ? static_cast<double>(singleConsumerRedef) /
                            static_cast<double>(totalInsts)
                      : 0.0;
}

double
UsageReport::fracSingleConsumerOther() const
{
    return totalInsts ? static_cast<double>(singleConsumerOther) /
                            static_cast<double>(totalInsts)
                      : 0.0;
}

double
UsageReport::fracSingleConsumer() const
{
    return fracSingleConsumerRedef() + fracSingleConsumerOther();
}

double
UsageReport::fracConsumers(std::uint64_t k) const
{
    if (!valuesConsumed)
        return 0.0;
    std::uint64_t c = 0;
    for (const auto &[count, n] : consumersPerValue) {
        if (count == 0)
            continue;
        if ((k < 6 && count == k) || (k >= 6 && count >= 6))
            c += n;
    }
    return static_cast<double>(c) / static_cast<double>(valuesConsumed);
}

double
UsageReport::fracReusable(int capIndex) const
{
    rrs_assert(capIndex >= 0 && capIndex < 4, "cap index 0..3");
    return destInsts
               ? static_cast<double>(
                     reusable[static_cast<std::size_t>(capIndex)]) /
                     static_cast<double>(destInsts)
               : 0.0;
}

std::array<double, 4>
UsageReport::reuseDepthBreakdown() const
{
    std::array<double, 4> out{};
    for (int i = 0; i < 4; ++i) {
        out[static_cast<std::size_t>(i)] =
            destInsts ? static_cast<double>(
                            reuseDepthCounts[static_cast<std::size_t>(i)]) /
                            static_cast<double>(destInsts)
                      : 0.0;
    }
    return out;
}

UsageReport
analyzeUsage(const RecordedTrace &trace)
{
    UsageReport rep;
    rep.workload = trace.workload();

    std::vector<InstRecord> recs;

    // One open value per (class, logical register).
    OpenValue open[numRegClasses][isa::numLogRegs];
    bool openValid[numRegClasses][isa::numLogRegs] = {};

    auto closeValue = [&](OpenValue &v) {
        rep.consumersPerValue[v.readers] += 1;
        ++rep.valuesClosed;
        if (v.readers >= 1)
            ++rep.valuesConsumed;
        if (v.readers == 1 && v.firstReader != none32) {
            InstRecord &r = recs[v.firstReader];
            if (v.firstReaderRedefines)
                r.soleConsumerRedef = true;
            else
                r.soleConsumerOther = true;
            // The consumer could reuse the producer's physical register,
            // provided it writes a register and the producer is inside
            // the analysis window.
            if (r.hasDest && v.producer != none32 &&
                r.reuseSrcProducer == none32) {
                r.reuseSrcProducer = v.producer;
            }
        }
    };

    for (std::size_t i = 0; i < trace.size(); ++i) {
        const DynInst di = trace[i];
        const isa::StaticInst &si = di.si;
        auto idx = static_cast<std::uint32_t>(recs.size());
        recs.emplace_back();

        bool writes_reg = si.hasDest() &&
                          !(si.dest.cls == RegClass::Int &&
                            si.dest.idx == isa::zeroReg);
        recs.back().hasDest = writes_reg;
        ++rep.totalInsts;
        if (writes_reg)
            ++rep.destInsts;

        // Consume sources (dedupe repeated registers within the inst).
        for (int s = 0; s < si.numSrcs(); ++s) {
            const isa::RegId src = si.srcs[static_cast<std::size_t>(s)];
            if (src.cls == RegClass::Int && src.idx == isa::zeroReg)
                continue;
            bool dup = false;
            for (int t = 0; t < s; ++t) {
                if (si.srcs[static_cast<std::size_t>(t)] == src)
                    dup = true;
            }
            if (dup)
                continue;
            auto c = static_cast<std::size_t>(src.cls);
            OpenValue &v = open[c][src.idx];
            if (!openValid[c][src.idx]) {
                // Live-in value: open it with an unknown producer.
                v = OpenValue{};
                openValid[c][src.idx] = true;
            }
            if (v.readers == 0) {
                v.firstReader = idx;
                v.firstReaderRedefines =
                    writes_reg && si.dest == src;
            }
            ++v.readers;
        }

        // Redefinition closes the previous value of the dest register.
        if (writes_reg) {
            auto c = static_cast<std::size_t>(si.dest.cls);
            if (openValid[c][si.dest.idx])
                closeValue(open[c][si.dest.idx]);
            open[c][si.dest.idx] = OpenValue{.producer = idx,
                                             .readers = 0,
                                             .firstReader = none32,
                                             .firstReaderRedefines = false};
            openValid[c][si.dest.idx] = true;
        }
    }

    // Stream end closes every open value.
    for (std::size_t c = 0; c < numRegClasses; ++c) {
        for (std::size_t r = 0; r < isa::numLogRegs; ++r) {
            if (openValid[c][r])
                closeValue(open[c][r]);
        }
    }

    // Figure 1 instruction counts (deduped per instruction).
    for (const auto &r : recs) {
        if (r.soleConsumerRedef)
            ++rep.singleConsumerRedef;
        else if (r.soleConsumerOther)
            ++rep.singleConsumerOther;
    }

    // Figure 3: reuse-chain simulation under each cap.
    const std::uint32_t caps[4] = {1, 2, 3, 250};
    std::vector<std::uint8_t> depth(recs.size());
    for (int k = 0; k < 4; ++k) {
        std::fill(depth.begin(), depth.end(), 0);
        std::uint64_t reused = 0;
        for (std::uint32_t i = 0; i < recs.size(); ++i) {
            const InstRecord &r = recs[i];
            if (!r.hasDest || r.reuseSrcProducer == none32)
                continue;
            std::uint8_t d = depth[r.reuseSrcProducer];
            if (d < caps[k]) {
                depth[i] = static_cast<std::uint8_t>(
                    std::min<std::uint32_t>(d + 1u, 250u));
                ++reused;
                if (k == 3) {
                    // Exact-depth decomposition for the unlimited run.
                    std::uint32_t bucket =
                        std::min<std::uint32_t>(depth[i], 4u) - 1u;
                    ++rep.reuseDepthCounts[bucket];
                }
            }
        }
        rep.reusable[static_cast<std::size_t>(k)] = reused;
    }

    return rep;
}

} // namespace rrs::trace
