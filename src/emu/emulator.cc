#include "emulator.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/logging.hh"
#include "trace/fnv.hh"

namespace rrs::emu {

using isa::Opcode;

const SparseMemory::Page *
SparseMemory::findPage(Addr addr) const
{
    auto it = pages.find(addr / pageBytes);
    return it == pages.end() ? nullptr : it->second.get();
}

SparseMemory::Page &
SparseMemory::touchPage(Addr addr)
{
    auto &slot = pages[addr / pageBytes];
    if (!slot) {
        slot = std::make_unique<Page>();
        slot->fill(0);
    }
    return *slot;
}

std::uint64_t
SparseMemory::read(Addr addr, unsigned size) const
{
    rrs_assert(size == 1 || size == 4 || size == 8, "bad access size");
    std::uint64_t v = 0;
    for (unsigned b = 0; b < size; ++b) {
        Addr a = addr + b;
        const Page *page = findPage(a);
        std::uint8_t byte = page ? (*page)[a % pageBytes] : 0;
        v |= static_cast<std::uint64_t>(byte) << (8 * b);
    }
    return v;
}

void
SparseMemory::write(Addr addr, std::uint64_t value, unsigned size)
{
    rrs_assert(size == 1 || size == 4 || size == 8, "bad access size");
    for (unsigned b = 0; b < size; ++b) {
        Addr a = addr + b;
        touchPage(a)[a % pageBytes] =
            static_cast<std::uint8_t>(value >> (8 * b));
    }
}

std::uint64_t
SparseMemory::digest() const
{
    std::vector<Addr> pageNums;
    pageNums.reserve(pages.size());
    for (const auto &[num, page] : pages)
        pageNums.push_back(num);
    std::sort(pageNums.begin(), pageNums.end());

    std::uint64_t h = trace::fnv::offset;
    for (Addr num : pageNums) {
        const Page &page = *pages.at(num);
        // An all-zero page is indistinguishable from an unmapped one
        // to read(); skip it so the digest matches that equivalence.
        bool allZero = true;
        for (std::uint8_t byte : page) {
            if (byte != 0) {
                allZero = false;
                break;
            }
        }
        if (allZero)
            continue;
        trace::fnv::foldU64(h, num);
        for (std::uint8_t byte : page)
            trace::fnv::foldU8(h, byte);
    }
    return h;
}

Emulator::Emulator(const isa::Program &prog, std::string name,
                   std::uint64_t maxInsts)
    : prog(prog), label(std::move(name)), maxInsts(maxInsts)
{
    xregs.fill(0);
    fregs.fill(0.0);
    // Stack pointer convention: x28.
    xregs[28] = isa::stackBase;
    pc = prog.entry;
    isHalted = prog.text.empty();
    icount = 0;
    for (const auto &chunk : prog.data) {
        for (std::size_t i = 0; i < chunk.bytes.size(); ++i)
            mem.write(chunk.addr + i, chunk.bytes[i], 1);
    }
}

std::uint64_t
Emulator::intReg(LogRegIndex idx) const
{
    return idx == isa::zeroReg ? 0 : xregs[idx];
}

void
Emulator::writeIntReg(LogRegIndex idx, std::uint64_t value)
{
    if (idx != isa::zeroReg)
        xregs[idx] = value;
}

std::optional<trace::DynInst>
Emulator::next()
{
    trace::DynInst di;
    if (!step(di))
        return std::nullopt;
    return di;
}

std::uint64_t
Emulator::fastForwardTo(Addr target, std::uint64_t cap)
{
    std::uint64_t skipped = 0;
    trace::DynInst di;
    while (pc != target && skipped < cap && step(di))
        ++skipped;
    return skipped;
}

std::uint64_t
Emulator::run()
{
    trace::DynInst di;
    while (step(di)) {
    }
    return icount;
}

bool
Emulator::step(trace::DynInst &out)
{
    if (isHalted || icount >= maxInsts) {
        isHalted = true;
        return false;
    }
    if (!prog.validPc(pc))
        rrs_fatal("%s: pc 0x%llx outside text segment", label.c_str(),
                  static_cast<unsigned long long>(pc));

    const isa::StaticInst &si = prog.instAt(pc);
    out = trace::DynInst{};
    out.seq = icount;
    out.pc = pc;
    out.si = si;

    Addr next_pc = pc + isa::instBytes;

    auto x = [&](int s) {
        return intReg(si.srcs[static_cast<std::size_t>(s)].idx);
    };
    auto f = [&](int s) {
        return fregs[si.srcs[static_cast<std::size_t>(s)].idx];
    };
    auto setX = [&](std::uint64_t v) { writeIntReg(si.dest.idx, v); };
    auto setF = [&](double v) { fregs[si.dest.idx] = v; };
    auto sx = [&](int s) { return static_cast<std::int64_t>(x(s)); };

    switch (si.op) {
      case Opcode::Add: setX(x(0) + x(1)); break;
      case Opcode::Sub: setX(x(0) - x(1)); break;
      case Opcode::Mul: setX(x(0) * x(1)); break;
      case Opcode::Div:
        // ARM semantics: division by zero yields zero.
        setX(x(1) == 0 ? 0
                       : static_cast<std::uint64_t>(sx(0) / sx(1)));
        break;
      case Opcode::Rem:
        setX(x(1) == 0 ? x(0)
                       : static_cast<std::uint64_t>(sx(0) % sx(1)));
        break;
      case Opcode::And: setX(x(0) & x(1)); break;
      case Opcode::Orr: setX(x(0) | x(1)); break;
      case Opcode::Eor: setX(x(0) ^ x(1)); break;
      case Opcode::Lsl: setX(x(0) << (x(1) & 63)); break;
      case Opcode::Lsr: setX(x(0) >> (x(1) & 63)); break;
      case Opcode::Asr: setX(static_cast<std::uint64_t>(sx(0) >>
                             (x(1) & 63))); break;
      case Opcode::Slt: setX(sx(0) < sx(1) ? 1 : 0); break;
      case Opcode::Sltu: setX(x(0) < x(1) ? 1 : 0); break;
      case Opcode::Addi: setX(x(0) + static_cast<std::uint64_t>(si.imm));
        break;
      case Opcode::Subi: setX(x(0) - static_cast<std::uint64_t>(si.imm));
        break;
      case Opcode::Muli: setX(x(0) * static_cast<std::uint64_t>(si.imm));
        break;
      case Opcode::Andi: setX(x(0) & static_cast<std::uint64_t>(si.imm));
        break;
      case Opcode::Orri: setX(x(0) | static_cast<std::uint64_t>(si.imm));
        break;
      case Opcode::Eori: setX(x(0) ^ static_cast<std::uint64_t>(si.imm));
        break;
      case Opcode::Lsli: setX(x(0) << (si.imm & 63)); break;
      case Opcode::Lsri: setX(x(0) >> (si.imm & 63)); break;
      case Opcode::Asri:
        setX(static_cast<std::uint64_t>(sx(0) >> (si.imm & 63)));
        break;
      case Opcode::Slti: setX(sx(0) < si.imm ? 1 : 0); break;
      case Opcode::Mov: setX(x(0)); break;
      case Opcode::Movz: setX(static_cast<std::uint64_t>(si.imm)); break;

      case Opcode::Ldr:
      case Opcode::Ldrw:
      case Opcode::Ldrb: {
        Addr ea = x(0) + static_cast<std::uint64_t>(si.imm);
        out.effAddr = ea;
        setX(mem.read(ea, si.info().memBytes));
        break;
      }
      case Opcode::Fldr: {
        Addr ea = x(0) + static_cast<std::uint64_t>(si.imm);
        out.effAddr = ea;
        std::uint64_t raw = mem.read(ea, 8);
        double d;
        std::memcpy(&d, &raw, sizeof(d));
        setF(d);
        break;
      }
      case Opcode::Str:
      case Opcode::Strw:
      case Opcode::Strb: {
        Addr ea = x(1) + static_cast<std::uint64_t>(si.imm);
        out.effAddr = ea;
        mem.write(ea, x(0), si.info().memBytes);
        break;
      }
      case Opcode::Fstr: {
        Addr ea = x(1) + static_cast<std::uint64_t>(si.imm);
        out.effAddr = ea;
        double d = f(0);
        std::uint64_t raw;
        std::memcpy(&raw, &d, sizeof(raw));
        mem.write(ea, raw, 8);
        break;
      }

      case Opcode::Beq: out.taken = x(0) == x(1); break;
      case Opcode::Bne: out.taken = x(0) != x(1); break;
      case Opcode::Blt: out.taken = sx(0) < sx(1); break;
      case Opcode::Bge: out.taken = sx(0) >= sx(1); break;
      case Opcode::Bltu: out.taken = x(0) < x(1); break;
      case Opcode::Bgeu: out.taken = x(0) >= x(1); break;
      case Opcode::B: out.taken = true; break;
      case Opcode::Bl:
        out.taken = true;
        setX(pc + isa::instBytes);
        break;
      case Opcode::Ret:
        out.taken = true;
        next_pc = x(0);
        break;
      case Opcode::Br:
        out.taken = true;
        next_pc = x(0);
        break;

      case Opcode::Fadd: setF(f(0) + f(1)); break;
      case Opcode::Fsub: setF(f(0) - f(1)); break;
      case Opcode::Fmul: setF(f(0) * f(1)); break;
      case Opcode::Fdiv: setF(f(0) / f(1)); break;
      case Opcode::Fsqrt: setF(std::sqrt(f(0))); break;
      case Opcode::Fmin: setF(std::fmin(f(0), f(1))); break;
      case Opcode::Fmax: setF(std::fmax(f(0), f(1))); break;
      case Opcode::Fneg: setF(-f(0)); break;
      case Opcode::Fabs: setF(std::fabs(f(0))); break;
      case Opcode::Fmadd: setF(f(0) * f(1) + f(2)); break;
      case Opcode::Fmov: setF(f(0)); break;
      case Opcode::Fmovi: setF(si.fimm); break;
      case Opcode::Fcvt: setF(static_cast<double>(sx(0))); break;
      case Opcode::Fcvti:
        setX(static_cast<std::uint64_t>(static_cast<std::int64_t>(f(0))));
        break;
      case Opcode::Feq: setX(f(0) == f(1) ? 1 : 0); break;
      case Opcode::Flt: setX(f(0) < f(1) ? 1 : 0); break;
      case Opcode::Fle: setX(f(0) <= f(1) ? 1 : 0); break;

      case Opcode::Nop: break;
      case Opcode::Halt: isHalted = true; break;
      case Opcode::NumOpcodes: rrs_panic("invalid opcode");
    }

    if (si.control() && si.branchKind() != isa::BranchKind::Return &&
        si.branchKind() != isa::BranchKind::Indirect && out.taken) {
        next_pc = si.target;
    }

    out.nextPc = next_pc;
    pc = next_pc;
    ++icount;
    // The Halt instruction itself is still part of the stream; the next
    // call observes isHalted and ends it.
    return true;
}

} // namespace rrs::emu
