/**
 * @file
 * Definition of the rrsim instruction set: a small ARMv8-flavoured
 * load/store RISC ISA with 32 integer and 32 floating-point logical
 * registers, used by every workload in this repository.
 *
 * The ISA deliberately mirrors the properties the paper's analysis
 * depends on: almost every instruction has a single destination
 * register, loads/stores use base+offset addressing, branches are
 * compare-and-branch, and integer / floating-point register files are
 * architecturally disjoint.
 *
 * Instructions are 4 bytes for PC arithmetic purposes (fetch, BTB and
 * I-cache behaviour), but there is no binary encoding: the in-memory
 * StaticInst structure *is* the representation.
 */

#ifndef RRS_ISA_ISA_HH
#define RRS_ISA_ISA_HH

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/types.hh"

namespace rrs::isa {

/** Number of logical registers per class. */
constexpr int numLogRegs = 32;

/** Integer register index that always reads zero (ARM xzr). */
constexpr LogRegIndex zeroReg = 31;

/** Link register written by Bl and read by Ret (ARM x30). */
constexpr LogRegIndex linkReg = 30;

/** Base virtual address of the text segment. */
constexpr Addr textBase = 0x10000;

/** Size of one instruction in bytes (for PC arithmetic). */
constexpr Addr instBytes = 4;

/** All opcodes in the ISA. */
enum class Opcode : std::uint8_t {
    // Integer register-register ALU.
    Add, Sub, Mul, Div, Rem, And, Orr, Eor, Lsl, Lsr, Asr, Slt, Sltu,
    // Integer register-immediate ALU.
    Addi, Subi, Muli, Andi, Orri, Eori, Lsli, Lsri, Asri, Slti,
    // Moves.
    Mov,    // int reg <- int reg
    Movz,   // int reg <- 64-bit immediate
    // Memory (base register + immediate offset).
    Ldr,    // 8-byte integer load
    Ldrw,   // 4-byte zero-extended integer load
    Ldrb,   // 1-byte zero-extended integer load
    Str,    // 8-byte integer store
    Strw,   // 4-byte integer store
    Strb,   // 1-byte integer store
    Fldr,   // 8-byte floating-point load
    Fstr,   // 8-byte floating-point store
    // Control flow.
    Beq, Bne, Blt, Bge, Bltu, Bgeu,   // compare-and-branch
    B,      // unconditional direct branch
    Bl,     // call: link reg <- return address, jump to target
    Ret,    // return: jump to link reg
    Br,     // indirect jump through a register
    // Floating point.
    Fadd, Fsub, Fmul, Fdiv, Fsqrt, Fmin, Fmax, Fneg, Fabs,
    Fmadd,  // fused multiply-add: dest <- s1 * s2 + s3
    Fmov,   // fp reg <- fp reg
    Fmovi,  // fp reg <- double immediate
    Fcvt,   // fp reg <- (double)int reg
    Fcvti,  // int reg <- (int64)fp reg (truncating)
    Feq, Flt, Fle,   // fp compares producing an int 0/1
    // Misc.
    Nop,
    Halt,   // end of program

    NumOpcodes
};

/** Functional-unit / scheduling class of an instruction. */
enum class InstClass : std::uint8_t {
    IntAlu,
    IntMult,
    IntDiv,
    FpAlu,
    FpMult,
    FpDiv,
    Load,
    Store,
    Branch,
    Nop,
};

/** Control-flow kind, for the branch predictor and fetch redirection. */
enum class BranchKind : std::uint8_t {
    None,
    Cond,       // compare-and-branch
    Uncond,     // direct jump
    Call,       // direct call (pushes RAS)
    Return,     // indirect return (pops RAS)
    Indirect,   // indirect jump
};

/** Register identifier: class + index within the class. */
struct RegId
{
    RegClass cls = RegClass::Int;
    LogRegIndex idx = invalidRegIndex;

    bool valid() const { return idx != invalidRegIndex; }
    bool operator==(const RegId &) const = default;
};

/** Make an integer register id. */
constexpr RegId
intReg(LogRegIndex idx)
{
    return RegId{RegClass::Int, idx};
}

/** Make a floating-point register id. */
constexpr RegId
fpReg(LogRegIndex idx)
{
    return RegId{RegClass::Float, idx};
}

/** Static (per-opcode) properties. */
struct OpInfo
{
    const char *name;       //!< assembly mnemonic
    InstClass cls;          //!< scheduling class
    std::uint8_t numSrcs;   //!< register source operand count
    bool hasDest;           //!< writes a register
    RegClass destCls;       //!< class of the destination (if any)
    RegClass srcCls[3];     //!< class of each source operand
    bool hasImm;            //!< carries an integer immediate
    bool hasFpImm;          //!< carries a double immediate
    BranchKind branch;      //!< control-flow kind
    std::uint8_t memBytes;  //!< memory access size (0 if not a memory op)
};

/** Look up the static properties of an opcode. */
const OpInfo &opInfo(Opcode op);

/** Assembly mnemonic of an opcode. */
inline const char *
opName(Opcode op)
{
    return opInfo(op).name;
}

/** Parse a mnemonic (lower case) back to an opcode. */
std::optional<Opcode> opcodeFromName(std::string_view name);

/** True for loads (int or fp). */
inline bool
isLoad(Opcode op)
{
    return opInfo(op).cls == InstClass::Load;
}

/** True for stores (int or fp). */
inline bool
isStore(Opcode op)
{
    return opInfo(op).cls == InstClass::Store;
}

/** True for any control-flow instruction. */
inline bool
isControl(Opcode op)
{
    return opInfo(op).branch != BranchKind::None;
}

/**
 * Per-instruction attribute bits used by the pre-decoded trace layout
 * (trace::PackedTrace) and the timing model's hot loop.  The first
 * four are static per-opcode properties stamped by the classifier;
 * writesReg also depends on the destination register, so the trace
 * stamps it once per dictionary entry.
 */
namespace instattr {
constexpr std::uint8_t load = 1u << 0;       //!< InstClass::Load
constexpr std::uint8_t store = 1u << 1;      //!< InstClass::Store
constexpr std::uint8_t control = 1u << 2;    //!< any branch kind
constexpr std::uint8_t hasDest = 1u << 3;    //!< writes a register
constexpr std::uint8_t writesReg = 1u << 4;  //!< dest renames
                                             //!< (has a dest, not xzr)
} // namespace instattr

/**
 * Compact pre-decoded metadata for one static instruction: everything
 * the per-cycle pipeline loop needs, resolved once by the classifier
 * (or once per dictionary entry at trace capture) so the loop itself
 * never chases through OpInfo.  Four bytes, trivially copyable.
 */
struct PackedMeta
{
    std::uint8_t attrs = 0;                 //!< instattr:: bits
    InstClass cls = InstClass::Nop;         //!< scheduling class
    BranchKind branch = BranchKind::None;   //!< control-flow kind
    std::uint8_t memBytes = 0;              //!< memory access size

    bool isLoad() const { return attrs & instattr::load; }
    bool isStore() const { return attrs & instattr::store; }
    bool isControl() const { return attrs & instattr::control; }
    bool hasDest() const { return attrs & instattr::hasDest; }
};

/**
 * One-time classifier: the static PackedMeta for an opcode (per-opcode
 * bits only — the trace stamps writesReg per dictionary entry).  A
 * single table load; the table is built once from opInfo().
 */
const PackedMeta &packedMeta(Opcode op);

/**
 * A decoded static instruction.  This is the single in-memory
 * representation used by the assembler, the functional emulator and
 * (via DynInst) the timing model.
 */
struct StaticInst
{
    Opcode op = Opcode::Nop;
    RegId dest;                     //!< valid() iff the op has a dest
    std::array<RegId, 3> srcs{};    //!< first numSrcs() entries valid
    std::int64_t imm = 0;           //!< immediate / memory offset
    double fimm = 0.0;              //!< floating-point immediate
    Addr target = invalidAddr;      //!< direct branch target PC

    const OpInfo &info() const { return opInfo(op); }
    std::uint8_t numSrcs() const { return info().numSrcs; }
    bool hasDest() const { return info().hasDest; }
    InstClass cls() const { return info().cls; }
    BranchKind branchKind() const { return info().branch; }
    bool load() const { return info().cls == InstClass::Load; }
    bool store() const { return info().cls == InstClass::Store; }
    bool control() const { return info().branch != BranchKind::None; }

    /** Render as assembly text (labels shown as raw addresses). */
    std::string toString() const;
};

/** Format a register id as x<n>/xzr or f<n>. */
std::string regName(RegId reg);

} // namespace rrs::isa

#endif // RRS_ISA_ISA_HH
