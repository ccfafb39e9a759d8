#include "packed.hh"

#include <limits>

#include "common/logging.hh"

namespace rrs::trace {

namespace {

/** Equal static instructions; fimm by bit pattern (±0.0, NaN payloads). */
bool
sameStatic(const isa::StaticInst &a, const isa::StaticInst &b)
{
    return a.op == b.op && a.dest == b.dest && a.srcs == b.srcs &&
           a.imm == b.imm &&
           std::bit_cast<std::uint64_t>(a.fimm) ==
               std::bit_cast<std::uint64_t>(b.fimm) &&
           a.target == b.target;
}

} // namespace

void
PackedTrace::SparseColumn::reserve(std::size_t n)
{
    bits.reserve((n + 63) / 64);
    before.reserve((n + 63) / 64);
}

void
PackedTrace::SparseColumn::push(bool present, std::uint64_t value)
{
    if (records % 64 == 0) {
        rrs_assert(values.size() <= std::numeric_limits<std::uint32_t>::max(),
                   "sparse column rank count overflows 32 bits");
        bits.push_back(0);
        before.push_back(static_cast<std::uint32_t>(values.size()));
    }
    if (present) {
        bits.back() |= std::uint64_t{1} << (records % 64);
        values.push_back(value);
    }
    ++records;
}

std::size_t
PackedTrace::SparseColumn::bytes() const
{
    return bits.size() * sizeof(std::uint64_t) +
           before.size() * sizeof(std::uint32_t) +
           values.size() * sizeof(std::uint64_t);
}

void
PackedTrace::reserve(std::size_t records)
{
    recs.reserve(records);
    nextPcs.reserve(records);
    effAddrs.reserve(records);
}

std::uint32_t
PackedTrace::intern(const DynInst &di)
{
    std::uint32_t &slot = hint[(di.pc / isa::instBytes) & (hintSlots - 1)];
    if (slot < dict.size() && dict[slot].pc == di.pc &&
        sameStatic(dict[slot].si, di.si))
        return slot;

    rrs_assert(dict.size() < takenBit,
               "trace dictionary index overflows 31 bits");
    // Static per-opcode bits from the one-time classifier, plus
    // writesReg, which depends only on the destination.
    isa::PackedMeta m = isa::packedMeta(di.si.op);
    if (m.hasDest() && !(di.si.dest.cls == RegClass::Int &&
                         di.si.dest.idx == isa::zeroReg))
        m.attrs |= isa::instattr::writesReg;
    slot = static_cast<std::uint32_t>(dict.size());
    dict.push_back(Entry{di.pc, di.si, m});
    return slot;
}

void
PackedTrace::append(const DynInst &di)
{
    if (empty()) {
        firstSeq = di.seq;
        hint.assign(hintSlots, noEntry);
    }
    rrs_assert(di.seq == firstSeq + size(),
               "trace records must be numbered densely");

    const std::uint32_t idx = intern(di);
    recs.push_back(di.taken ? idx | takenBit : idx);
    const Addr predicted = predictedNextPc(dict[idx], di.taken);
    nextPcs.push(di.nextPc != predicted, di.nextPc);
    effAddrs.push(di.effAddr != invalidAddr, di.effAddr);
}

std::size_t
PackedTrace::bytes() const
{
    return dict.size() * sizeof(Entry) +
           hint.size() * sizeof(std::uint32_t) +
           recs.size() * sizeof(std::uint32_t) + nextPcs.bytes() +
           effAddrs.bytes();
}

DynInst
PackedTrace::record(std::size_t i) const
{
    const Entry &e = entry(i);
    DynInst di;
    di.seq = seq(i);
    di.pc = e.pc;
    di.si = e.si;
    di.taken = taken(i);
    di.nextPc = nextPcs.has(i) ? nextPcs.at(i) : predictedNextPc(e, di.taken);
    di.effAddr = effAddr(i);
    return di;
}

} // namespace rrs::trace
