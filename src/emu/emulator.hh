/**
 * @file
 * Functional emulator for the rrsim ISA.
 *
 * Executes an assembled Program architecturally (no timing), producing
 * the dynamic instruction stream the timing model consumes.  Memory is
 * a sparse paged store; unmapped pages read as zero, so programs can use
 * BSS-style data without explicit initialisation.
 */

#ifndef RRS_EMU_EMULATOR_HH
#define RRS_EMU_EMULATOR_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "isa/program.hh"
#include "trace/dyninst.hh"

namespace rrs::emu {

/** Sparse byte-addressable memory with 4 KiB pages. */
class SparseMemory
{
  public:
    static constexpr Addr pageBytes = 4096;

    /** Read size bytes (1/4/8), little endian, zero for unmapped. */
    std::uint64_t read(Addr addr, unsigned size) const;

    /** Write size bytes (1/4/8), little endian. */
    void write(Addr addr, std::uint64_t value, unsigned size);

    /** Number of mapped pages (for tests / footprint reporting). */
    std::size_t mappedPages() const { return pages.size(); }

    /**
     * FNV-1a digest over all mapped pages in ascending address order.
     * Page iteration is sorted first, so the digest is a pure function
     * of memory *contents*, independent of the order pages were
     * touched — two memories that compare byte-equal digest equal.
     * Used by the lockstep oracle tests to compare a timing run's
     * final memory against the functional emulator's.
     */
    std::uint64_t digest() const;

  private:
    using Page = std::array<std::uint8_t, pageBytes>;

    const Page *findPage(Addr addr) const;
    Page &touchPage(Addr addr);

    std::unordered_map<Addr, std::unique_ptr<Page>> pages;
};

/**
 * The architectural execution engine.  Also implements InstStream so a
 * timing simulation can pull the dynamic trace directly.
 */
class Emulator : public trace::InstStream
{
  public:
    /**
     * @param prog assembled program (must outlive the emulator)
     * @param name workload label used in reports
     * @param maxInsts stream length cap; the stream ends after this
     *        many instructions even if the program has not halted
     */
    Emulator(const isa::Program &prog, std::string name,
             std::uint64_t maxInsts = UINT64_MAX);

    /** Execute one instruction; false once halted or capped. */
    bool step(trace::DynInst &out);

    /** Run to completion (or the cap); returns instructions executed. */
    std::uint64_t run();

    // InstStream interface.
    std::optional<trace::DynInst> next() override;
    const std::string &name() const override { return label; }

    /** True once a Halt has executed or the cap was reached. */
    bool halted() const { return isHalted; }

    /** Architectural integer register read (x31 reads zero). */
    std::uint64_t intReg(LogRegIndex idx) const;

    /** Architectural fp register read. */
    double fpReg(LogRegIndex idx) const { return fregs[idx]; }

    /** Direct memory access for tests and result checking. */
    SparseMemory &memory() { return mem; }
    const SparseMemory &memory() const { return mem; }

    /** Instructions executed so far. */
    std::uint64_t instCount() const { return icount; }

    /** Current architectural PC. */
    Addr currentPc() const { return pc; }

    /** Adjust the stream-length cap (absolute instruction count). */
    void setMaxInsts(std::uint64_t cap) { maxInsts = cap; }

    /**
     * Fast-forward (execute without emitting) until the PC reaches
     * `target` or `cap` instructions have executed.  Used to skip
     * initialisation phases before timing measurement begins.
     * @return instructions skipped
     */
    std::uint64_t fastForwardTo(Addr target, std::uint64_t cap);

  private:
    void writeIntReg(LogRegIndex idx, std::uint64_t value);

    const isa::Program &prog;
    std::string label;
    std::uint64_t maxInsts;

    std::array<std::uint64_t, isa::numLogRegs> xregs{};
    std::array<double, isa::numLogRegs> fregs{};
    Addr pc = 0;
    bool isHalted = false;
    std::uint64_t icount = 0;
    SparseMemory mem;
};

} // namespace rrs::emu

#endif // RRS_EMU_EMULATOR_HH
