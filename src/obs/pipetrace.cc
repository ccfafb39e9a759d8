#include "pipetrace.hh"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/logging.hh"

namespace rrs::obs {

PipeTracer::PipeTracer(std::ostream &os, std::uint64_t ticksPerCycle)
    : out(os), ticksPerCycle(ticksPerCycle)
{
    rrs_assert(ticksPerCycle > 0, "ticksPerCycle must be positive");
}

PipeTracer::PipeTracer(const std::string &path,
                       std::uint64_t ticksPerCycle)
    : owned(std::make_unique<std::ofstream>(path)),
      out(*owned), ticksPerCycle(ticksPerCycle)
{
    if (!owned->is_open())
        rrs_fatal("cannot open pipeline trace file '%s'", path.c_str());
    rrs_assert(ticksPerCycle > 0, "ticksPerCycle must be positive");
}

PipeTracer::~PipeTracer()
{
    endRun();
}

void
PipeTracer::fetch(std::uint64_t seq, const trace::DynInst &di, Tick cycle)
{
    Record rec;
    rec.pc = di.pc;
    rec.disasm = di.si.toString();
    rec.store = di.isStore();
    rec.fetchTick = toTick(cycle);
    live.emplace(seq, std::move(rec));
}

void
PipeTracer::rename(std::uint64_t seq, const DestTag &, Tick cycle)
{
    auto it = live.find(seq);
    if (it != live.end()) {
        it->second.renameTick = toTick(cycle);
        it->second.dispatchTick = toTick(cycle);
    }
}

void
PipeTracer::issue(std::uint64_t seq, Tick cycle)
{
    auto it = live.find(seq);
    if (it != live.end())
        it->second.issueTick = toTick(cycle);
}

void
PipeTracer::complete(std::uint64_t seq, Tick cycle)
{
    auto it = live.find(seq);
    if (it != live.end())
        it->second.completeTick = toTick(cycle);
}

void
PipeTracer::commit(std::uint64_t seq, const DestTag &, Tick cycle)
{
    auto it = live.find(seq);
    if (it == live.end())
        return;
    emit(it->second, toTick(cycle));
    live.erase(it);
}

void
PipeTracer::squash(std::uint64_t seq, Tick)
{
    auto it = live.find(seq);
    if (it == live.end())
        return;
    emit(it->second, 0);
    live.erase(it);
}

void
PipeTracer::endRun()
{
    // Anything still in flight when the run ends never retired; emit
    // the records (in fetch order for determinism) as squashed.
    std::vector<std::uint64_t> seqs;
    seqs.reserve(live.size());
    for (const auto &[seq, rec] : live)
        seqs.push_back(seq);
    std::sort(seqs.begin(), seqs.end());
    for (std::uint64_t seq : seqs)
        emit(live.at(seq), 0);
    live.clear();
    out.flush();
}

void
PipeTracer::emit(const Record &rec, Tick retireTick)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "0x%08llx",
                  static_cast<unsigned long long>(rec.pc));
    // Decode is folded into fetch in this model's two-stage front end.
    out << "O3PipeView:fetch:" << rec.fetchTick << ":" << buf << ":0:"
        << emittedCount << ":" << rec.disasm << "\n";
    out << "O3PipeView:decode:" << rec.fetchTick << "\n";
    out << "O3PipeView:rename:" << rec.renameTick << "\n";
    out << "O3PipeView:dispatch:" << rec.dispatchTick << "\n";
    out << "O3PipeView:issue:" << rec.issueTick << "\n";
    out << "O3PipeView:complete:" << rec.completeTick << "\n";
    out << "O3PipeView:retire:" << retireTick << ":store:"
        << (rec.store && retireTick ? retireTick : 0) << "\n";
    ++emittedCount;
}

} // namespace rrs::obs
