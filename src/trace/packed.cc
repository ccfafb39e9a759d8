#include "packed.hh"

#include "common/logging.hh"

namespace rrs::trace {

bool
PackedTrace::regBytePackable(const isa::RegId &r)
{
    return r.idx == invalidRegIndex || r.idx < isa::numLogRegs;
}

std::uint8_t
PackedTrace::packRegByte(const isa::RegId &r)
{
    const auto cls = static_cast<std::uint8_t>(r.cls);
    if (r.idx == invalidRegIndex)
        return static_cast<std::uint8_t>(0x80u | cls);
    rrs_assert(r.idx < isa::numLogRegs, "register index out of range");
    return static_cast<std::uint8_t>((cls << 6) | r.idx);
}

isa::RegId
PackedTrace::unpackRegByte(std::uint8_t b)
{
    if (b & 0x80u)
        return isa::RegId{static_cast<RegClass>(b & 0x7fu),
                          invalidRegIndex};
    return isa::RegId{static_cast<RegClass>((b >> 6) & 1u),
                      static_cast<LogRegIndex>(b & 0x3fu)};
}

void
PackedTrace::reserve(std::size_t records)
{
    metaCol.reserve(records);
    opCol.reserve(records);
    destCol.reserve(records);
    srcCol.reserve(records);
    pcCol.reserve(records);
    nextPcCol.reserve(records);
    effAddrCol.reserve(records);
    immCol.reserve(records);
    fimmCol.reserve(records);
    targetCol.reserve(records);
}

void
PackedTrace::append(const DynInst &di)
{
    if (empty())
        firstSeq = di.seq;
    rrs_assert(di.seq == firstSeq + size(),
               "trace records must be numbered densely");
    rrs_assert(regBytePackable(di.si.dest) &&
                   regBytePackable(di.si.srcs[0]) &&
                   regBytePackable(di.si.srcs[1]) &&
                   regBytePackable(di.si.srcs[2]),
               "register id does not fit the packed byte codec");

    // Static per-opcode bits from the one-time classifier, then the
    // per-record facts stamped on top.
    isa::PackedMeta m = isa::packedMeta(di.si.op);
    if (di.taken)
        m.attrs |= isa::instattr::taken;
    if (m.hasDest() && !(di.si.dest.cls == RegClass::Int &&
                         di.si.dest.idx == isa::zeroReg))
        m.attrs |= isa::instattr::writesReg;
    metaCol.push_back(m);
    opCol.push_back(di.si.op);
    destCol.push_back(packRegByte(di.si.dest));
    srcCol.push_back({packRegByte(di.si.srcs[0]),
                      packRegByte(di.si.srcs[1]),
                      packRegByte(di.si.srcs[2])});
    pcCol.push_back(di.pc);
    nextPcCol.push_back(di.nextPc);
    effAddrCol.push_back(di.effAddr);
    immCol.push_back(di.si.imm);
    fimmCol.push_back(di.si.fimm);
    targetCol.push_back(di.si.target);
}

DynInst
PackedTrace::record(std::size_t i) const
{
    DynInst di;
    di.seq = seq(i);
    di.pc = pcCol[i];
    di.si.op = opCol[i];
    di.si.dest = dest(i);
    for (unsigned s = 0; s < 3; ++s)
        di.si.srcs[s] = src(i, s);
    di.si.imm = immCol[i];
    di.si.fimm = fimmCol[i];
    di.si.target = targetCol[i];
    di.nextPc = nextPcCol[i];
    di.taken = taken(i);
    di.effAddr = effAddrCol[i];
    return di;
}

} // namespace rrs::trace
