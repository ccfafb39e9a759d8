/**
 * @file
 * Small bit-manipulation helpers used across the simulator: a
 * power-of-two check and a 64-bit hash mix.
 */

#ifndef RRS_COMMON_BITUTILS_HH
#define RRS_COMMON_BITUTILS_HH

#include <cstdint>

#include "logging.hh"

namespace rrs {

/** True if x is a power of two (0 is not). */
constexpr bool
isPowerOf2(std::uint64_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

/**
 * Mix a 64-bit value into a well-distributed hash (finaliser from
 * MurmurHash3).  Used for PC-indexed predictor tables.
 */
constexpr std::uint64_t
hashMix(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
}

} // namespace rrs

#endif // RRS_COMMON_BITUTILS_HH
