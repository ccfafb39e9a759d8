#include "recorded.hh"

#include <cstring>

#include "common/logging.hh"

namespace rrs::trace {

namespace {

using fnv::foldU64;
using fnv::foldU8;

void
foldReg(std::uint64_t &h, const isa::RegId &r)
{
    foldU8(h, static_cast<std::uint8_t>(r.cls));
    foldU64(h, r.idx);
}

} // namespace

void
RecordedTrace::foldInst(std::uint64_t &h, const DynInst &di)
{
    foldU64(h, di.seq);
    foldU64(h, di.pc);
    foldU8(h, static_cast<std::uint8_t>(di.si.op));
    foldReg(h, di.si.dest);
    for (const auto &s : di.si.srcs)
        foldReg(h, s);
    foldU64(h, static_cast<std::uint64_t>(di.si.imm));
    std::uint64_t fbits;
    std::memcpy(&fbits, &di.si.fimm, sizeof(fbits));
    foldU64(h, fbits);
    foldU64(h, di.si.target);
    foldU64(h, di.nextPc);
    foldU8(h, di.taken ? 1 : 0);
    foldU64(h, di.effAddr);
}

RecordedTrace::RecordedTrace(std::string workload, std::uint64_t cap,
                             std::uint64_t sourceHash, PackedTrace records)
    : workloadName(std::move(workload)),
      streamCap(cap),
      srcHash(sourceHash),
      cols(std::move(records))
{
}

RecordedTrace::RecordedTrace(std::string workload, std::uint64_t cap,
                             std::uint64_t sourceHash,
                             const std::vector<DynInst> &insts)
    : RecordedTrace(std::move(workload), cap, sourceHash, [&insts] {
          PackedTrace records;
          records.reserve(insts.size());
          for (const DynInst &di : insts)
              records.append(di);
          return records;
      }())
{
}

std::uint64_t
RecordedTrace::digest() const
{
    std::uint64_t h = digestSeed;
    for (std::size_t i = 0; i < cols.size(); ++i)
        foldInst(h, cols.record(i));
    return h;
}

ReplayStream::ReplayStream(TracePtr trace) : src(std::move(trace))
{
    rrs_assert(src != nullptr, "replay stream needs a trace");
}

std::optional<DynInst>
ReplayStream::next()
{
    if (pos >= src->size())
        return std::nullopt;
    ++emitted;
    return (*src)[pos++];
}

} // namespace rrs::trace
