/**
 * @file
 * PackedTrace: the form a captured instruction stream is stored in
 * (DESIGN §4h).  A RecordedTrace holds its records only in this form.
 *
 * A captured stream executes the same few static instructions over and
 * over, so the trace keeps a per-trace dictionary of distinct static
 * instructions and, per record, only what the static instruction
 * cannot predict:
 *
 *  - the dictionary holds each distinct {pc, StaticInst, PackedMeta}
 *    once.  The meta is the classifier's per-opcode answer sheet plus
 *    the writes-a-register bit, which depends only on the destination,
 *    so whole-trace passes do plain bit tests and byte compares;
 *  - each record is one 32-bit word: bit 31 is the taken bit, the
 *    other 31 bits index the dictionary;
 *  - nextPc is stored only where it differs from its prediction (the
 *    entry's target if taken, else pc + isa::instBytes), and effAddr
 *    only where it is not invalidAddr.  Both sparse columns are found
 *    by rank (PackedTrace::SparseColumn).
 *
 * Records are appended one at a time, at capture, and everything is
 * built there: reading never changes the trace, so any number of
 * threads may read one.  Interning probes a pc-indexed hint and then
 * compares every static field; a miss appends a new entry.  A
 * duplicate entry is still correct, only larger.
 *
 * seq is not stored either: captured streams are dense, so seq(i) is
 * the first record's seq plus i.  record(i) rebuilds the DynInst, so
 * replay hands the core exactly the record capture saw.
 */

#ifndef RRS_TRACE_PACKED_HH
#define RRS_TRACE_PACKED_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "trace/dyninst.hh"

namespace rrs::trace {

class PackedTrace
{
  public:
    /** Slots of the pc-indexed interning hint (a power of two). */
    static constexpr std::size_t hintSlots = 4096;

    void reserve(std::size_t records);

    /** Append one record; seqs must continue densely from the first. */
    void append(const DynInst &di);

    std::size_t size() const { return recs.size(); }
    bool empty() const { return recs.empty(); }

    /** Dictionary entries: the distinct static instructions interned. */
    std::size_t staticInsts() const { return dict.size(); }

    /**
     * Bytes the records, the sparse columns and the dictionary (with
     * its hint) hold, counted from element counts, not capacities, so
     * the figure is deterministic.
     */
    std::size_t bytes() const;

    /**
     * Host seconds spent packing after capture: always 0, since append
     * is the whole of packing.
     */
    double buildSeconds() const { return 0.0; }

    // --- per-record accessors ----------------------------------------
    /** The static instruction's meta (per-opcode bits + writesReg). */
    const isa::PackedMeta &meta(std::size_t i) const { return entry(i).meta; }
    InstSeqNum seq(std::size_t i) const { return firstSeq + i; }
    isa::Opcode op(std::size_t i) const { return entry(i).si.op; }
    Addr pc(std::size_t i) const { return entry(i).pc; }
    Addr
    nextPc(std::size_t i) const
    {
        return nextPcs.has(i) ? nextPcs.at(i)
                              : predictedNextPc(entry(i), taken(i));
    }
    Addr
    effAddr(std::size_t i) const
    {
        return effAddrs.has(i) ? effAddrs.at(i) : invalidAddr;
    }
    std::int64_t imm(std::size_t i) const { return entry(i).si.imm; }
    double fimm(std::size_t i) const { return entry(i).si.fimm; }
    Addr target(std::size_t i) const { return entry(i).si.target; }
    bool taken(std::size_t i) const { return recs[i] & takenBit; }
    isa::RegId dest(std::size_t i) const { return entry(i).si.dest; }
    isa::RegId
    src(std::size_t i, unsigned s) const
    {
        return entry(i).si.srcs[s];
    }

    /** The DynInst record i was appended from. */
    DynInst record(std::size_t i) const;

  private:
    /**
     * A column that holds a value at only some records.  One presence bit
     * per record, and for each 64-record block the count of values stored
     * before it, so a present value's slot is that count plus a popcount
     * of the block's earlier bits.
     */
    class SparseColumn
    {
      public:
        void reserve(std::size_t records);

        /** Append the next record: a value if `present`, else none. */
        void push(bool present, std::uint64_t value);

        bool
        has(std::size_t i) const
        {
            return (bits[i / 64] >> (i % 64)) & 1;
        }

        /** Record i's value; only meaningful if has(i). */
        std::uint64_t
        at(std::size_t i) const
        {
            const std::uint64_t earlier =
                bits[i / 64] & ((std::uint64_t{1} << (i % 64)) - 1);
            return values[std::size_t{before[i / 64]} +
                          std::popcount(earlier)];
        }

        /** Bytes held, from element counts. */
        std::size_t bytes() const;

      private:
        std::size_t records = 0;
        std::vector<std::uint64_t> bits;    //!< presence, a bit per record
        std::vector<std::uint32_t> before;  //!< values before each block
        std::vector<std::uint64_t> values;
    };

    /** One distinct static instruction. */
    struct Entry
    {
        Addr pc;
        isa::StaticInst si;
        isa::PackedMeta meta;
    };

    static constexpr std::uint32_t takenBit = std::uint32_t{1} << 31;
    static constexpr std::uint32_t noEntry = ~std::uint32_t{0};

    static Addr
    predictedNextPc(const Entry &e, bool taken)
    {
        return taken ? e.si.target : e.pc + isa::instBytes;
    }

    const Entry &
    entry(std::size_t i) const
    {
        return dict[recs[i] & ~takenBit];
    }

    /** The dictionary index of di's static instruction, interned. */
    std::uint32_t intern(const DynInst &di);

    InstSeqNum firstSeq = 0;

    std::vector<Entry> dict;
    std::vector<std::uint32_t> hint;   //!< pc slot -> likely entry
    std::vector<std::uint32_t> recs;   //!< taken bit | entry index
    SparseColumn nextPcs;              //!< only unpredicted next PCs
    SparseColumn effAddrs;             //!< only valid addresses
};

} // namespace rrs::trace

#endif // RRS_TRACE_PACKED_HH
