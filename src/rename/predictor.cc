#include "predictor.hh"

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace rrs::rename {

RegisterTypePredictor::RegisterTypePredictor(
    const TypePredictorParams &params)
    : table(params.entries, 0)
{
    rrs_assert(!table.empty(), "predictor needs at least one entry");
}

std::uint32_t
RegisterTypePredictor::indexFor(Addr pc) const
{
    return static_cast<std::uint32_t>(hashMix(pc >> 2) % table.size());
}

std::uint8_t
RegisterTypePredictor::predict(Addr pc) const
{
    return table[indexFor(pc)];
}

void
RegisterTypePredictor::trainOnRelease(std::uint32_t index,
                                      std::uint8_t allocatedShadow,
                                      std::uint8_t actualReuses,
                                      bool multiUseDetected,
                                      bool singleUseMissed)
{
    std::uint8_t &e = table[index];
    if (allocatedShadow > 0 && multiUseDetected) {
        // Predicted single-use, saw extra consumers: reset.
        e = 0;
        return;
    }
    if (singleUseMissed) {
        // The value had exactly one consumer but no shadow capacity was
        // provisioned: learn that this PC produces single-use values.
        // Only lift dormant entries to the smallest shadow bank — the
        // shadow-exhaustion rule escalates further if chains form;
        // anything more aggressive floods the shadow banks with
        // long-lived committed values.
        if (e == 0)
            e = 1;
        return;
    }
    if (actualReuses < allocatedShadow && e > 0) {
        // Shadow copies went unused: shrink the next allocation.
        --e;
    }
}

void
RegisterTypePredictor::trainOnShadowExhausted(std::uint32_t index)
{
    std::uint8_t &e = table[index];
    if (e < 3)
        ++e;
}

} // namespace rrs::rename
