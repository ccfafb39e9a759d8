#include "cache.hh"

#include <algorithm>
#include <bit>

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace rrs::mem {

Cache::Cache(const CacheParams &params, Cache *below, Dram *dram)
    : params(params),
      sets(static_cast<std::uint32_t>(params.sizeBytes /
                                      (params.lineBytes * params.assoc))),
      lineShift(std::countr_zero(params.lineBytes)),
      below(below), dram(dram),
      lines(sets * params.assoc), mshrFile(params.mshrs)
{
    rrs_assert((below == nullptr) != (dram == nullptr),
               "cache needs exactly one of a lower cache or DRAM");
    rrs_assert(isPowerOf2(params.lineBytes),
               "cache line size must be a power of two");
    rrs_assert(isPowerOf2(sets), "cache set count must be a power of two");
}

Cache::Line *
Cache::findLine(Addr line)
{
    const std::uint32_t base = setIndex(line) * params.assoc;
    for (std::uint32_t w = 0; w < params.assoc; ++w) {
        Line &l = lines[base + w];
        if (l.valid && l.tag == line)
            return &l;
    }
    return nullptr;
}

const Cache::Line *
Cache::findLine(Addr line) const
{
    return const_cast<Cache *>(this)->findLine(line);
}

Cache::Line &
Cache::victimLine(Addr line)
{
    const std::uint32_t base = setIndex(line) * params.assoc;
    Line *victim = &lines[base];
    for (std::uint32_t w = 0; w < params.assoc; ++w) {
        Line &l = lines[base + w];
        if (!l.valid)
            return l;
        if (l.lru < victim->lru)
            victim = &l;
    }
    return *victim;
}

Tick
Cache::fillFromBelow(Addr addr, Tick now)
{
    if (below)
        return below->access(addr, now);
    return dram->access(lineAddr(addr), now);
}

bool
Cache::contains(Addr addr, Tick now) const
{
    const Line *l = findLine(lineAddr(addr));
    return l != nullptr && l->fillDone <= now;
}

Tick
Cache::access(Addr addr, Tick now)
{
    const Addr line = lineAddr(addr);

    Line *hitLine = findLine(line);
    if (hitLine) {
        hitLine->lru = ++lruTick;
        // A line still in flight (MSHR hit) is ready at fillDone.
        if (hitLine->fillDone <= now)
            ++hits;
        return std::max(now, hitLine->fillDone) + params.hitLatency;
    }

    ++misses;

    // Check for a pending MSHR on the same line (shouldn't normally
    // happen because the fill installs the line immediately, but a
    // conflicting eviction can re-miss a pending line).
    for (auto &m : mshrFile) {
        if (m.valid && m.lineAddr == line)
            return std::max(now, m.done) + params.hitLatency;
    }

    // Allocate an MSHR: if all are busy, stall until the earliest one
    // frees (structural hazard).
    Mshr *slot = nullptr;
    Tick earliest = ~Tick{0};
    for (auto &m : mshrFile) {
        if (!m.valid || m.done <= now) {
            slot = &m;
            break;
        }
        earliest = std::min(earliest, m.done);
    }
    Tick start = now;
    if (!slot) {
        start = earliest;
        for (auto &m : mshrFile) {
            if (m.done == earliest)
                slot = &m;
        }
    }

    Tick done = fillFromBelow(addr, start);
    slot->valid = true;
    slot->lineAddr = line;
    slot->done = done;

    // Install the line now with its availability time.
    Line &victim = victimLine(line);
    victim.valid = true;
    victim.tag = line;
    victim.lru = ++lruTick;
    victim.fillDone = done;

    return done + params.hitLatency;
}

void
Cache::prefetch(Addr addr, Tick now)
{
    const Addr line = lineAddr(addr);
    if (findLine(line))
        return;
    // Prefetches only proceed when an MSHR is free; they never stall.
    for (auto &m : mshrFile) {
        if (!m.valid || m.done <= now) {
            Tick done = fillFromBelow(addr, now);
            m.valid = true;
            m.lineAddr = line;
            m.done = done;
            Line &victim = victimLine(line);
            victim.valid = true;
            victim.tag = line;
            victim.lru = ++lruTick;
            victim.fillDone = done;
            return;
        }
    }
}

Prefetcher::Prefetcher(std::uint32_t tableEntries, std::uint32_t degree)
    : table(tableEntries), degree(degree)
{
    rrs_assert(isPowerOf2(tableEntries),
               "prefetcher table size must be a power of two");
}

std::int64_t
Prefetcher::train(Addr pc, Addr addr)
{
    Entry &e = table[hashMix(pc) & (table.size() - 1)];
    if (e.valid && e.pc == pc) {
        std::int64_t stride =
            static_cast<std::int64_t>(addr) -
            static_cast<std::int64_t>(e.lastAddr);
        if (stride != 0 && stride == e.stride) {
            if (e.confidence < 3)
                ++e.confidence;
        } else {
            e.confidence = e.confidence > 0 ? e.confidence - 1 : 0;
            if (e.confidence == 0)
                e.stride = stride;
        }
        e.lastAddr = addr;
        return e.confidence >= 2 ? e.stride : 0;
    }
    e = Entry{true, pc, addr, 0, 0};
    return 0;
}

} // namespace rrs::mem
