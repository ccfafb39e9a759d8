#include "tracefile.hh"

#include <array>
#include <cstring>
#include <fstream>
#include <vector>

#include "common/atomicfile.hh"
#include "common/logging.hh"
#include "trace/packed.hh"

namespace rrs::trace {

namespace {

// Record flags byte.
constexpr std::uint8_t flagTaken = 1u << 0;
constexpr std::uint8_t flagEffAddr = 1u << 1;
constexpr std::uint8_t flagFpImm = 1u << 2;
constexpr std::uint8_t flagTarget = 1u << 3;

void
putVarint(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

std::int64_t
unzigzag(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}

void
putU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    for (unsigned b = 0; b < 4; ++b)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
}

void
putU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (unsigned b = 0; b < 8; ++b)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
}

std::uint64_t
fpBits(double d)
{
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    return bits;
}

/** The optional-field flags of record i. */
std::uint8_t
recordFlags(const PackedTrace &p, std::size_t i)
{
    std::uint8_t flags = 0;
    if (p.taken(i))
        flags |= flagTaken;
    if (p.effAddr(i) != invalidAddr)
        flags |= flagEffAddr;
    if (fpBits(p.fimm(i)) != 0)
        flags |= flagFpImm;
    if (p.target(i) != invalidAddr)
        flags |= flagTarget;
    return flags;
}

/** True for byte values PackedTrace::unpackRegByte decodes losslessly. */
bool
regByteValid(std::uint8_t b)
{
    if (b & 0x80u)
        return (b & 0x7fu) < numRegClasses;
    return (b & 0x3fu) < isa::numLogRegs;
}

/** Bounds-checked cursor over the file image. */
class Reader
{
  public:
    Reader(const std::uint8_t *data, std::size_t size)
        : p(data), end(data + size)
    {
    }

    bool ok() const { return good; }
    std::size_t remaining() const { return static_cast<std::size_t>(end - p); }

    std::uint8_t
    u8()
    {
        if (p >= end) {
            good = false;
            return 0;
        }
        return *p++;
    }

    std::uint32_t
    u32()
    {
        std::uint32_t v = 0;
        for (unsigned b = 0; b < 4; ++b)
            v |= static_cast<std::uint32_t>(u8()) << (8 * b);
        return v;
    }

    std::uint64_t
    u64()
    {
        std::uint64_t v = 0;
        for (unsigned b = 0; b < 8; ++b)
            v |= static_cast<std::uint64_t>(u8()) << (8 * b);
        return v;
    }

    std::uint64_t
    varint()
    {
        std::uint64_t v = 0;
        for (unsigned shift = 0; shift < 64; shift += 7) {
            std::uint8_t byte = u8();
            v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
            if (!(byte & 0x80))
                return v;
        }
        good = false;    // > 10 continuation bytes: corrupt
        return v;
    }

    /** A cursor over the next n bytes; this one moves past them. */
    Reader
    takeBytes(std::size_t n)
    {
        Reader col = *this;
        if (remaining() < n)
            good = false;
        else
            p += n;
        return col;
    }

    /** A cursor over the next n varints; this one moves past them. */
    Reader
    takeVarints(std::size_t n)
    {
        Reader col = *this;
        for (std::size_t i = 0; i < n && good; ++i)
            varint();
        return col;
    }

    std::string
    bytes(std::size_t n)
    {
        if (remaining() < n) {
            good = false;
            return {};
        }
        std::string s(reinterpret_cast<const char *>(p), n);
        p += n;
        return s;
    }

  private:
    const std::uint8_t *p;
    const std::uint8_t *end;
    bool good = true;
};

} // namespace

void
writeTraceFile(const std::string &path, const RecordedTrace &trace)
{
    // v2 is column-major: one full column at a time, mirroring the
    // PackedTrace columns so like values compress together.
    const PackedTrace &p = trace.packed();
    const std::size_t n = p.size();

    std::vector<std::uint8_t> buf;
    buf.reserve(64 + n * 12);

    putU32(buf, traceFileMagic);
    putU32(buf, traceFileVersion);
    putVarint(buf, trace.workload().size());
    for (char c : trace.workload())
        buf.push_back(static_cast<std::uint8_t>(c));
    putVarint(buf, trace.cap());
    putU64(buf, trace.sourceHash());
    putVarint(buf, n);

    // Seq deltas: the first record's seq, then 1 per record (dense).
    for (std::size_t i = 0; i < n; ++i)
        putVarint(buf, i == 0 ? p.seq(0) : 1);
    for (std::size_t i = 0; i < n; ++i)
        putVarint(buf, p.pc(i));
    for (std::size_t i = 0; i < n; ++i) {
        putVarint(buf,
                  zigzag(static_cast<std::int64_t>(p.nextPc(i) - p.pc(i))));
    }
    for (std::size_t i = 0; i < n; ++i)
        buf.push_back(static_cast<std::uint8_t>(p.op(i)));
    for (std::size_t i = 0; i < n; ++i)
        buf.push_back(recordFlags(p, i));
    for (std::size_t i = 0; i < n; ++i)
        buf.push_back(PackedTrace::packRegByte(p.dest(i)));
    for (unsigned s = 0; s < 3; ++s) {
        for (std::size_t i = 0; i < n; ++i)
            buf.push_back(PackedTrace::packRegByte(p.src(i, s)));
    }
    for (std::size_t i = 0; i < n; ++i)
        putVarint(buf, zigzag(p.imm(i)));

    // Optional values, one flag group at a time in record order.
    for (std::size_t i = 0; i < n; ++i) {
        if (fpBits(p.fimm(i)) != 0)
            putU64(buf, fpBits(p.fimm(i)));
    }
    for (std::size_t i = 0; i < n; ++i) {
        if (p.target(i) != invalidAddr)
            putVarint(buf, p.target(i));
    }
    for (std::size_t i = 0; i < n; ++i) {
        if (p.effAddr(i) != invalidAddr)
            putVarint(buf, p.effAddr(i));
    }

    putU64(buf, trace.digest());
    putU64(buf, p.digest());

    // Temp-file + rename keeps concurrent writers of one path atomic
    // (common/atomicfile.hh, shared with the JSON exporters).  No
    // parent creation: a mistyped directory fails the write rather
    // than silently materialising directories.
    std::string error;
    if (!tryWriteFileAtomic(
            path,
            std::string_view(reinterpret_cast<const char *>(buf.data()),
                             buf.size()),
            error, /*createParents=*/false))
        rrs_fatal("cannot write trace file '%s': %s", path.c_str(),
                  error.c_str());
}

TracePtr
tryReadTraceFile(const std::string &path, std::string &error,
                 std::uint32_t *fileVersion)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        error = "cannot open trace file '" + path + "'";
        return nullptr;
    }
    std::vector<std::uint8_t> buf(
        (std::istreambuf_iterator<char>(is)),
        std::istreambuf_iterator<char>());

    // Smallest well-formed file: header with an empty name and zero
    // records plus the two-digest trailer.
    if (buf.size() < 4 + 4 + 1 + 1 + 8 + 1 + 8 + 8) {
        error = "trace file '" + path + "' is too short";
        return nullptr;
    }

    Reader r(buf.data(), buf.size());
    if (r.u32() != traceFileMagic) {
        error = "bad magic in trace file '" + path + "'";
        return nullptr;
    }
    const std::uint32_t version = r.u32();
    if (fileVersion)
        *fileVersion = version;
    if (version != traceFileVersion) {
        error = "unsupported trace version " + std::to_string(version) +
                " in '" + path + "' (this build reads only version " +
                std::to_string(traceFileVersion) + ")";
        return nullptr;
    }

    const std::uint64_t nameLen = r.varint();
    if (!r.ok() || nameLen > r.remaining()) {
        error = "truncated trace file '" + path + "'";
        return nullptr;
    }
    std::string name = r.bytes(static_cast<std::size_t>(nameLen));
    const std::uint64_t cap = r.varint();
    const std::uint64_t sourceHash = r.u64();
    const std::uint64_t count = r.varint();
    if (!r.ok()) {
        error = "truncated trace file '" + path + "'";
        return nullptr;
    }
    // Each record costs at least 10 column bytes; reject counts the
    // file cannot possibly hold before walking or reserving anything.
    if (count > r.remaining() / 10) {
        error = "corrupt record count in trace file '" + path + "'";
        return nullptr;
    }
    const auto n = static_cast<std::size_t>(count);

    // One cursor per column, each found by walking past the columns
    // before it; the optional groups hold one value per flagged record.
    Reader seqs = r.takeVarints(n);
    Reader pcs = r.takeVarints(n);
    Reader nextPcs = r.takeVarints(n);
    Reader ops = r.takeBytes(n);
    Reader flags = r.takeBytes(n);
    std::size_t fimmCount = 0, targetCount = 0, effAddrCount = 0;
    Reader f = flags;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint8_t b = f.u8();
        fimmCount += (b & flagFpImm) != 0;
        targetCount += (b & flagTarget) != 0;
        effAddrCount += (b & flagEffAddr) != 0;
    }
    // Dest, then the three sources; list elements initialise in order.
    std::array<Reader, 4> regs{r.takeBytes(n), r.takeBytes(n),
                               r.takeBytes(n), r.takeBytes(n)};
    Reader imms = r.takeVarints(n);
    Reader fimms = r.takeBytes(8 * fimmCount);
    Reader targets = r.takeVarints(targetCount);
    Reader effAddrs = r.takeVarints(effAddrCount);
    const std::uint64_t storedDigest = r.u64();
    const std::uint64_t storedPackedDigest = r.u64();
    if (!r.ok()) {
        error = "truncated trace file '" + path + "'";
        return nullptr;
    }

    // Every cursor now stays inside the file: decode record by record
    // straight into the columns.
    PackedTrace records;
    records.reserve(n);
    InstSeqNum seq = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t delta = seqs.varint();
        if (i > 0 && delta != 1) {
            error = "sequence gap in trace file '" + path +
                    "' (record " + std::to_string(i) + ")";
            return nullptr;
        }
        seq = i == 0 ? delta : seq + 1;

        DynInst di;
        di.seq = seq;
        di.pc = pcs.varint();
        // Unsigned, so a corrupt delta wraps instead of overflowing.
        di.nextPc = di.pc + static_cast<Addr>(unzigzag(nextPcs.varint()));
        const std::uint8_t op = ops.u8();
        if (op >= static_cast<std::uint8_t>(isa::Opcode::NumOpcodes)) {
            error = "corrupt opcode in trace file '" + path +
                    "' (record " + std::to_string(i) + ")";
            return nullptr;
        }
        di.si.op = static_cast<isa::Opcode>(op);
        std::array<std::uint8_t, 4> regBytes;
        for (unsigned k = 0; k < regs.size(); ++k) {
            regBytes[k] = regs[k].u8();
            if (!regByteValid(regBytes[k])) {
                error = "corrupt register id in trace file '" + path +
                        "' (record " + std::to_string(i) + ")";
                return nullptr;
            }
        }
        di.si.dest = PackedTrace::unpackRegByte(regBytes[0]);
        for (unsigned s = 0; s < 3; ++s)
            di.si.srcs[s] = PackedTrace::unpackRegByte(regBytes[s + 1]);
        di.si.imm = unzigzag(imms.varint());
        const std::uint8_t f = flags.u8();
        if (f & flagFpImm) {
            const std::uint64_t bits = fimms.u64();
            std::memcpy(&di.si.fimm, &bits, sizeof(di.si.fimm));
        }
        di.si.target = (f & flagTarget) ? targets.varint() : invalidAddr;
        di.taken = (f & flagTaken) != 0;
        di.effAddr = (f & flagEffAddr) ? effAddrs.varint() : invalidAddr;
        records.append(di);
    }

    auto trace = std::make_shared<RecordedTrace>(
        std::move(name), cap, sourceHash, std::move(records));
    const std::uint64_t recordDigest = trace->digest();
    if (recordDigest != storedDigest) {
        error = "digest mismatch in trace file '" + path +
                "': stored " + std::to_string(storedDigest) +
                ", computed " + std::to_string(recordDigest);
        return nullptr;
    }
    // The stored packed digest proves the rebuilt columns match the
    // writer's, i.e. that this build's classifier agrees.
    const std::uint64_t columnDigest = trace->packed().digest();
    if (columnDigest != storedPackedDigest) {
        error = "packed digest mismatch in trace file '" + path +
                "': stored " + std::to_string(storedPackedDigest) +
                ", computed " + std::to_string(columnDigest);
        return nullptr;
    }
    return trace;
}

TracePtr
readTraceFile(const std::string &path)
{
    std::string error;
    TracePtr trace = tryReadTraceFile(path, error);
    if (!trace)
        rrs_fatal("%s", error.c_str());
    return trace;
}

} // namespace rrs::trace
