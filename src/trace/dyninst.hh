/**
 * @file
 * DynInst: one dynamic instruction as seen by the timing model — the
 * static instruction plus its dynamic outcome (next PC, branch
 * direction, effective address).  Produced by the functional emulator
 * or by the synthetic trace generator, consumed by the O3 core and by
 * the trace-analysis passes.
 */

#ifndef RRS_TRACE_DYNINST_HH
#define RRS_TRACE_DYNINST_HH

#include <optional>

#include "isa/isa.hh"

namespace rrs::trace {

/** A dynamic instruction record. */
struct DynInst
{
    InstSeqNum seq = 0;            //!< position in the dynamic stream
    Addr pc = 0;                   //!< fetch PC
    isa::StaticInst si;            //!< decoded static instruction
    Addr nextPc = 0;               //!< PC of the next dynamic instruction
    bool taken = false;            //!< branch outcome (control only)
    Addr effAddr = invalidAddr;    //!< effective address (memory only)

    bool isLoad() const { return si.load(); }
    bool isStore() const { return si.store(); }
    bool isControl() const { return si.control(); }
    bool hasDest() const { return si.hasDest(); }
};

/**
 * A source of dynamic instructions.  next() returns instructions in
 * program (commit) order; nullopt signals end of stream.  A stream is
 * read once: a sweep replays a workload under many configurations
 * through one ReplayStream per run over the shared captured trace
 * (trace/recorded.hh).
 */
class InstStream
{
  public:
    virtual ~InstStream() = default;

    /** Next correct-path instruction, or nullopt at end of stream. */
    virtual std::optional<DynInst> next() = 0;

    /** Short label for reports (workload name). */
    virtual const std::string &name() const = 0;
};

} // namespace rrs::trace

#endif // RRS_TRACE_DYNINST_HH
