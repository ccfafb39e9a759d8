/**
 * @file
 * The byte-serial FNV-1a folds behind every 64-bit digest in the tree:
 * the trace record digest (RecordedTrace::digest), a kernel's source
 * hash (workloads::sourceHash), a ledger node's digest
 * (harness::nodeDigest) and the emulator's memory digest
 * (emu::SparseMemory::digest).  Inline, so a fold loop compiles to
 * straight-line xor/multiply code.
 */

#ifndef RRS_TRACE_FNV_HH
#define RRS_TRACE_FNV_HH

#include <cstdint>
#include <string_view>

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

/** FNV-1a of a byte string: every byte folded in order from `offset`. */
inline std::uint64_t
hashBytes(std::string_view bytes)
{
    std::uint64_t h = offset;
    for (unsigned char c : bytes)
        foldU8(h, c);
    return h;
}

} // namespace rrs::trace::fnv

#endif // RRS_TRACE_FNV_HH
