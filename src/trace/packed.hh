/**
 * @file
 * PackedTrace: the columns a captured instruction stream is stored in
 * (DESIGN §4h).  A RecordedTrace holds its records only in this form.
 *
 * Records are appended one at a time, at capture, and every DynInst
 * property question (is this a load? what class? which registers?) is
 * answered once, at append, and stored in flat structure-of-arrays
 * columns:
 *
 *  - a 4-byte isa::PackedMeta per record (attribute bits + compact
 *    InstClass / BranchKind bytes + memory access size, with the
 *    per-record taken and writes-a-register bits stamped on top), so
 *    whole-trace passes do plain bit tests and byte compares;
 *  - the opcode and the operand registers (dest + three sources, one
 *    packed byte each);
 *  - pc / nextPc / effAddr / imm / fimm / target, eight bytes each.
 *
 * That is every field of a DynInst except seq: captured streams are
 * dense, so seq(i) is the first record's seq plus i.  record(i)
 * rebuilds the DynInst, so replay hands the core exactly the record
 * capture saw.  Appending is all capture does.
 */

#ifndef RRS_TRACE_PACKED_HH
#define RRS_TRACE_PACKED_HH

#include <array>
#include <cstdint>
#include <vector>

#include "trace/dyninst.hh"

namespace rrs::trace {

class PackedTrace
{
  public:
    void reserve(std::size_t records);

    /** Append one record; seqs must continue densely from the first. */
    void append(const DynInst &di);

    std::size_t size() const { return metaCol.size(); }
    bool empty() const { return metaCol.empty(); }

    /**
     * Host seconds spent packing after capture: always 0, since append
     * is the whole of packing.
     */
    double buildSeconds() const { return 0.0; }

    // --- per-record columns ------------------------------------------
    const isa::PackedMeta &meta(std::size_t i) const { return metaCol[i]; }
    InstSeqNum seq(std::size_t i) const { return firstSeq + i; }
    isa::Opcode op(std::size_t i) const { return opCol[i]; }
    Addr pc(std::size_t i) const { return pcCol[i]; }
    Addr nextPc(std::size_t i) const { return nextPcCol[i]; }
    Addr effAddr(std::size_t i) const { return effAddrCol[i]; }
    std::int64_t imm(std::size_t i) const { return immCol[i]; }
    double fimm(std::size_t i) const { return fimmCol[i]; }
    Addr target(std::size_t i) const { return targetCol[i]; }
    bool taken(std::size_t i) const
    {
        return metaCol[i].attrs & isa::instattr::taken;
    }
    isa::RegId dest(std::size_t i) const
    {
        return unpackRegByte(destCol[i]);
    }
    isa::RegId src(std::size_t i, unsigned s) const
    {
        return unpackRegByte(srcCol[i][s]);
    }

    /** The DynInst record i was appended from. */
    DynInst record(std::size_t i) const;

  private:
    // A logical register fits one byte: bit 6 is the class, bits 0..5
    // the index (< isa::numLogRegs).  An invalid (absent) register is
    // 0x80 | class so absence round-trips with its class preserved.
    static bool regBytePackable(const isa::RegId &r);
    static std::uint8_t packRegByte(const isa::RegId &r);
    static isa::RegId unpackRegByte(std::uint8_t b);

    InstSeqNum firstSeq = 0;

    std::vector<isa::PackedMeta> metaCol;
    std::vector<isa::Opcode> opCol;
    std::vector<std::uint8_t> destCol;
    std::vector<std::array<std::uint8_t, 3>> srcCol;
    std::vector<Addr> pcCol;
    std::vector<Addr> nextPcCol;
    std::vector<Addr> effAddrCol;
    std::vector<std::int64_t> immCol;
    std::vector<double> fimmCol;
    std::vector<Addr> targetCol;
};

} // namespace rrs::trace

#endif // RRS_TRACE_PACKED_HH
