#include "wrongpath.hh"

namespace rrs::trace {

WrongPathGenerator::WrongPathGenerator(std::uint64_t seed,
                                       std::size_t historySize)
    : rng(seed), historySize(historySize)
{
    history.reserve(historySize);
}

void
WrongPathGenerator::observe(const DynInst &di)
{
    if (history.size() < historySize) {
        history.push_back(di.si);
    } else {
        history[cursor] = di.si;
        cursor = (cursor + 1) % historySize;
    }
}

DynInst
WrongPathGenerator::generate(Addr pc, InstSeqNum seq)
{
    DynInst di;
    di.seq = seq;
    di.pc = pc;

    if (history.empty()) {
        di.si.op = isa::Opcode::Nop;
        di.nextPc = pc + isa::instBytes;
        return di;
    }

    // Sample a template from recent history and re-randomise registers
    // within its classes, preserving the opcode mix and thus the
    // dest-register and FU-demand statistics of the local code.
    di.si = history[rng.below(history.size())];
    isa::StaticInst &si = di.si;

    auto randomReg = [&](RegClass cls) {
        // Avoid xzr so wrong-path instructions really allocate.
        auto idx = static_cast<LogRegIndex>(rng.below(30));
        return isa::RegId{cls, idx};
    };

    if (si.hasDest())
        si.dest = randomReg(si.dest.cls);
    for (int s = 0; s < si.numSrcs(); ++s) {
        auto &src = si.srcs[static_cast<std::size_t>(s)];
        src = randomReg(src.cls);
    }

    if (di.isLoad() || di.isStore()) {
        // Wrong-path memory ops keep a plausible (but unused) address.
        di.effAddr = 0x3000000 + (rng.below(1 << 20) & ~Addr{7});
    }

    // Wrong-path control: treated as not-taken so fetch continues
    // sequentially until the mispredicted branch resolves.
    di.taken = false;
    di.nextPc = pc + isa::instBytes;
    return di;
}

} // namespace rrs::trace
