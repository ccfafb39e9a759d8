#include "recorded.hh"

#include <cstring>

#include "common/logging.hh"

namespace rrs::trace {

namespace {

constexpr std::uint64_t fnvPrime = 0x100000001b3ULL;

void
foldU64(std::uint64_t &h, std::uint64_t v)
{
    for (unsigned b = 0; b < 8; ++b) {
        h ^= static_cast<std::uint8_t>(v >> (8 * b));
        h *= fnvPrime;
    }
}

void
foldU8(std::uint64_t &h, std::uint8_t v)
{
    h ^= v;
    h *= fnvPrime;
}

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
                             std::uint64_t sourceHash, Builder records)
    : workloadName(std::move(workload)),
      streamCap(cap),
      srcHash(sourceHash),
      cols(std::move(records.cols)),
      contentDigest(records.recordDigest)
{
    cols.finish();
}

RecordedTrace::RecordedTrace(std::string workload, std::uint64_t cap,
                             std::uint64_t sourceHash,
                             const std::vector<DynInst> &insts)
    : RecordedTrace(std::move(workload), cap, sourceHash, [&insts] {
          Builder records;
          records.reserve(insts.size());
          for (const DynInst &di : insts)
              records.append(di);
          return records;
      }())
{
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

const std::string &
ReplayStream::name() const
{
    return src->workload();
}

} // namespace rrs::trace
