#include "synthetic.hh"

#include "common/logging.hh"

namespace rrs::trace {

using isa::Opcode;

namespace {

// Usable register windows: avoid xzr (31), lr (30) and sp (28) so the
// synthetic dataflow never collides with calling conventions.
constexpr LogRegIndex intRegLo = 1;
constexpr LogRegIndex intRegHi = 27;
constexpr LogRegIndex fpRegLo = 0;
constexpr LogRegIndex fpRegHi = 31;

constexpr Addr synthDataBase = 0x2000000;

} // namespace

SyntheticStream::SyntheticStream(SyntheticParams params, std::string name)
    : params(params), label(std::move(name)), rng(params.seed),
      pc(isa::textBase)
{
}

isa::RegId
SyntheticStream::pickSource(RegClass cls)
{
    const LogRegIndex lo = cls == RegClass::Int ? intRegLo : fpRegLo;
    const LogRegIndex hi = cls == RegClass::Int ? intRegHi : fpRegHi;
    const PendingSingleUse &p = pending[static_cast<int>(cls)];
    for (int attempt = 0; attempt < 8; ++attempt) {
        auto idx = static_cast<LogRegIndex>(rng.between(lo, hi));
        // Never read a register whose live value is reserved for a
        // dedicated single-use consumer.
        if (p.valid && p.reg.idx == idx)
            continue;
        return isa::RegId{cls, idx};
    }
    // Fall back deterministically (p.reg can occupy at most one slot).
    auto idx = static_cast<LogRegIndex>(
        p.valid && p.reg.idx == lo ? lo + 1 : lo);
    return isa::RegId{cls, idx};
}

isa::RegId
SyntheticStream::pickDest(RegClass cls, bool &madeSingleUse)
{
    isa::RegId dest = pickSource(cls);
    madeSingleUse = rng.chance(params.singleUseFraction);
    return dest;
}

std::optional<DynInst>
SyntheticStream::next()
{
    if (emitted >= params.numInsts)
        return std::nullopt;

    DynInst di;
    di.seq = emitted;
    di.pc = pc;

    isa::StaticInst &si = di.si;
    const double r = rng.uniform();
    const double pBr = params.branchFraction;
    const double pLd = pBr + params.loadFraction;
    const double pSt = pLd + params.storeFraction;
    const double pFp = pSt + params.fpFraction;

    const Addr codeEnd =
        isa::textBase + params.staticFootprint * isa::instBytes;

    auto effAddr = [&]() -> Addr {
        if (rng.chance(0.7)) {
            stride = (stride + 64) % params.dataFootprint;
            return synthDataBase + stride;
        }
        return synthDataBase +
               (rng.below(params.dataFootprint) & ~Addr{7});
    };

    // Single-use consumption: if a value is pending for this class and
    // the chosen instruction kind can read it, consume it now.
    auto consumePending = [&](RegClass cls) -> std::optional<isa::RegId> {
        PendingSingleUse &p = pending[static_cast<int>(cls)];
        if (!p.valid)
            return std::nullopt;
        p.valid = false;
        return p.reg;
    };

    auto armPending = [&](RegClass cls, isa::RegId reg) {
        PendingSingleUse &p = pending[static_cast<int>(cls)];
        p.valid = true;
        p.reg = reg;
        p.redefine = rng.chance(params.redefFraction);
    };

    if (r < pBr) {
        // Conditional compare-and-branch.
        si.op = rng.chance(0.5) ? Opcode::Bne : Opcode::Blt;
        auto consumed = consumePending(RegClass::Int);
        si.srcs[0] = consumed ? *consumed : pickSource(RegClass::Int);
        si.srcs[1] = pickSource(RegClass::Int);
        si.target = isa::textBase +
                    rng.below(params.staticFootprint) * isa::instBytes;
        di.taken = rng.chance(params.takenFraction);
    } else if (r < pLd) {
        bool fp = rng.chance(params.fpFraction);
        si.op = fp ? Opcode::Fldr : Opcode::Ldr;
        auto consumed = consumePending(RegClass::Int);
        si.srcs[0] = consumed ? *consumed : pickSource(RegClass::Int);
        si.imm = static_cast<std::int64_t>(rng.below(256)) & ~7;
        di.effAddr = effAddr();
        bool single = false;
        RegClass dcls = fp ? RegClass::Float : RegClass::Int;
        si.dest = pickDest(dcls, single);
        if (single)
            armPending(dcls, si.dest);
    } else if (r < pSt) {
        bool fp = rng.chance(params.fpFraction);
        si.op = fp ? Opcode::Fstr : Opcode::Str;
        RegClass vcls = fp ? RegClass::Float : RegClass::Int;
        auto consumed = consumePending(vcls);
        si.srcs[0] = consumed ? *consumed : pickSource(vcls);
        si.srcs[1] = pickSource(RegClass::Int);
        si.imm = static_cast<std::int64_t>(rng.below(256)) & ~7;
        di.effAddr = effAddr();
    } else if (r < pFp) {
        // FP compute.
        const Opcode fpOps[] = {Opcode::Fadd, Opcode::Fsub, Opcode::Fmul,
                                Opcode::Fmul, Opcode::Fmadd};
        si.op = fpOps[rng.below(5)];
        PendingSingleUse &p = pending[static_cast<int>(RegClass::Float)];
        bool redefine = p.valid && p.redefine;
        isa::RegId consumedReg = p.reg;
        auto consumed = consumePending(RegClass::Float);
        si.srcs[0] = consumed ? *consumed : pickSource(RegClass::Float);
        si.srcs[1] = pickSource(RegClass::Float);
        if (si.numSrcs() == 3)
            si.srcs[2] = pickSource(RegClass::Float);
        bool single = false;
        if (consumed && redefine) {
            si.dest = consumedReg;
            single = rng.chance(params.singleUseFraction);
        } else {
            si.dest = pickDest(RegClass::Float, single);
        }
        if (single)
            armPending(RegClass::Float, si.dest);
    } else {
        // Integer compute.
        const Opcode intOps[] = {Opcode::Add, Opcode::Sub, Opcode::And,
                                 Opcode::Eor, Opcode::Lsl, Opcode::Mul};
        si.op = intOps[rng.below(6)];
        PendingSingleUse &p = pending[static_cast<int>(RegClass::Int)];
        bool redefine = p.valid && p.redefine;
        isa::RegId consumedReg = p.reg;
        auto consumed = consumePending(RegClass::Int);
        si.srcs[0] = consumed ? *consumed : pickSource(RegClass::Int);
        si.srcs[1] = pickSource(RegClass::Int);
        bool single = false;
        if (consumed && redefine) {
            si.dest = consumedReg;
            single = rng.chance(params.singleUseFraction);
        } else {
            si.dest = pickDest(RegClass::Int, single);
        }
        if (single)
            armPending(RegClass::Int, si.dest);
    }

    // Next PC: sequential, or the branch target when taken; wrap the
    // synthetic code footprint so PCs stay inside it.
    Addr seq_pc = pc + isa::instBytes;
    if (seq_pc >= codeEnd)
        seq_pc = isa::textBase;
    di.nextPc = (di.isControl() && di.taken) ? si.target : seq_pc;
    pc = di.nextPc;

    ++emitted;
    return di;
}

} // namespace rrs::trace
