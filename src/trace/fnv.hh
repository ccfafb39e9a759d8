/**
 * @file
 * The byte-serial FNV-1a folds behind both trace digests
 * (RecordedTrace::digest, PackedTrace::digest).  Inline, so a fold
 * loop compiles to straight-line xor/multiply code.
 */

#ifndef RRS_TRACE_FNV_HH
#define RRS_TRACE_FNV_HH

#include <cstdint>

namespace rrs::trace::fnv {

/** FNV-1a offset basis: the state before any byte is folded. */
constexpr std::uint64_t offset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t prime = 0x100000001b3ULL;

inline void
foldU8(std::uint64_t &h, std::uint8_t v)
{
    h ^= v;
    h *= prime;
}

/** Fold `v` one byte at a time, least significant first. */
inline void
foldU64(std::uint64_t &h, std::uint64_t v)
{
    for (unsigned b = 0; b < 8; ++b)
        foldU8(h, static_cast<std::uint8_t>(v >> (8 * b)));
}

} // namespace rrs::trace::fnv

#endif // RRS_TRACE_FNV_HH
