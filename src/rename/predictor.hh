/**
 * @file
 * The register type predictor (paper Section IV-D and Figure 7).
 *
 * A PC-hash-indexed table of 2-bit entries predicting, for the register
 * an instruction is about to allocate, how many times it will be
 * reused: 00 = normal register (no reuse expected), 01/10/11 = allocate
 * in the bank with 1/2/3 shadow cells.
 *
 * Training (paper rules):
 *  - on release, if not all allocated shadow copies were used, the
 *    entry is decremented;
 *  - if a register predicted single-use sees more than one consumer,
 *    the entry is reset to zero;
 *  - if a reuse attempt fails for lack of shadow cells, the entry is
 *    incremented so the next allocation gets a bigger bank.
 */

#ifndef RRS_RENAME_PREDICTOR_HH
#define RRS_RENAME_PREDICTOR_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace rrs::rename {

/** Predictor configuration. */
struct TypePredictorParams
{
    std::uint32_t entries = 512;   //!< paper: 512 x 2 bits = 1 Kbit
};

/** The register type predictor. */
class RegisterTypePredictor
{
  public:
    explicit RegisterTypePredictor(const TypePredictorParams &params);

    /** Table index for an instruction PC. */
    std::uint32_t indexFor(Addr pc) const;

    /** Predicted bank (0..3 == number of shadow cells) for a PC. */
    std::uint8_t predict(Addr pc) const;

    /** Raw entry access by index (the PRT remembers the index). */
    std::uint8_t value(std::uint32_t index) const
    {
        return table[index];
    }

    /**
     * Release-time training: the register allocated through `index`
     * into a bank with `allocatedShadow` cells was actually reused
     * `actualReuses` times and (if predicted single-use) may have been
     * observed multi-use.
     * @param singleUseMissed the register died with exactly one
     *        consumer but was never shared (a missed reuse): raise the
     *        entry so the next allocation from this PC gets a shadow
     *        bank.
     */
    void trainOnRelease(std::uint32_t index, std::uint8_t allocatedShadow,
                        std::uint8_t actualReuses, bool multiUseDetected,
                        bool singleUseMissed = false);

    /** A reuse failed because the bank had no free shadow cell left. */
    void trainOnShadowExhausted(std::uint32_t index);

    /** Number of entries (tests). */
    std::uint32_t entries() const
    {
        return static_cast<std::uint32_t>(table.size());
    }

  private:
    std::vector<std::uint8_t> table;
};

} // namespace rrs::rename

#endif // RRS_RENAME_PREDICTOR_HH
