// Tests for the binary trace-file codec (trace/tracefile.hh): a
// write → read round trip must reproduce every DynInst field exactly,
// and every class of corrupt input (short file, bad magic, wrong
// version, truncation, flipped digest) must be rejected with a clear
// fatal message — never a crash or a silently wrong trace.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "trace/recorded.hh"
#include "trace/tracefile.hh"
#include "workloads/workloads.hh"

namespace {

using namespace rrs;
using trace::DynInst;

std::string
tmpPath(const char *name)
{
    return ::testing::TempDir() + name;
}

std::vector<char>
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
}

void
spit(const std::string &path, const std::vector<char> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// A small trace that exercises every optional field: branches (taken
// and not), memory (effAddr), an fp immediate, negative immediates,
// invalid source registers.
trace::TracePtr
sampleTrace()
{
    std::vector<DynInst> insts;
    std::uint64_t seq = 1'000'000;  // non-zero start, like a warmed capture
    Addr pc = isa::textBase;
    auto push = [&](isa::StaticInst si, bool taken = false,
                    Addr effAddr = invalidAddr, Addr nextPc = 0) {
        DynInst di;
        di.seq = seq;
        di.pc = pc;
        di.si = si;
        di.nextPc = nextPc ? nextPc : pc + isa::instBytes;
        di.taken = taken;
        di.effAddr = effAddr;
        insts.push_back(di);
        ++seq;  // dense, as every captured stream is
        pc = di.nextPc;
    };

    isa::StaticInst add;
    add.op = isa::Opcode::Add;
    add.dest = isa::intReg(1);
    add.srcs = {isa::intReg(2), isa::intReg(3), isa::RegId{}};
    push(add);

    isa::StaticInst addi;
    addi.op = isa::Opcode::Addi;
    addi.dest = isa::intReg(4);
    addi.srcs = {isa::intReg(1), isa::RegId{}, isa::RegId{}};
    addi.imm = -123456789;  // negative: exercises zigzag
    push(addi);

    isa::StaticInst ldr;
    ldr.op = isa::Opcode::Ldr;
    ldr.dest = isa::intReg(5);
    ldr.srcs = {isa::intReg(28), isa::RegId{}, isa::RegId{}};
    ldr.imm = 16;
    push(ldr, false, 0x7fff0010);

    isa::StaticInst fmovi;
    fmovi.op = isa::Opcode::Fmovi;
    fmovi.dest = isa::fpReg(0);
    fmovi.fimm = -0.0;  // sign of zero must survive the bit copy
    push(fmovi);

    isa::StaticInst fmadd;
    fmadd.op = isa::Opcode::Fmadd;
    fmadd.dest = isa::fpReg(1);
    fmadd.srcs = {isa::fpReg(0), isa::fpReg(2), isa::fpReg(3)};
    push(fmadd);

    isa::StaticInst beq;
    beq.op = isa::Opcode::Beq;
    beq.srcs = {isa::intReg(1), isa::intReg(4), isa::RegId{}};
    beq.target = isa::textBase;
    push(beq, true, invalidAddr, isa::textBase);  // taken: pc goes back

    isa::StaticInst halt;
    halt.op = isa::Opcode::Halt;
    push(halt);

    return std::make_shared<trace::RecordedTrace>(
        "synthetic_codec_sample", 7, 0xdeadbeefcafef00dULL,
        std::move(insts));
}

std::uint64_t
fpBits(double d)
{
    std::uint64_t raw;
    std::memcpy(&raw, &d, sizeof(raw));
    return raw;
}

std::uint64_t
fnv1a(const std::vector<char> &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : bytes) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

// What the v2 writer emits for one trace: the file's length and FNV-1a
// digest, and the trace's record and packed digests.
struct V2Pin
{
    std::size_t bytes;
    std::uint64_t fileFnv;
    std::uint64_t recordDigest;
    std::uint64_t packedDigest;
};

// Write `t`, compare the bytes and digests with `pin`, then read the
// bytes back and expect the same digests.  A codec rewrite must write
// the same bytes, so passing this also shows it reads older files.
void
expectPinnedV2(const trace::RecordedTrace &t, const char *file,
               const V2Pin &pin)
{
    const std::string path = tmpPath(file);
    trace::writeTraceFile(path, t);
    const std::vector<char> bytes = slurp(path);
    EXPECT_EQ(bytes.size(), pin.bytes);
    EXPECT_EQ(fnv1a(bytes), pin.fileFnv);
    EXPECT_EQ(t.digest(), pin.recordDigest);
    EXPECT_EQ(t.packed().digest(), pin.packedDigest);

    std::string error;
    trace::TracePtr back = trace::tryReadTraceFile(path, error);
    ASSERT_TRUE(back) << error;
    EXPECT_EQ(back->digest(), pin.recordDigest);
    EXPECT_EQ(back->packed().digest(), pin.packedDigest);
}

void
expectSameTrace(const trace::RecordedTrace &a, const trace::RecordedTrace &b)
{
    EXPECT_EQ(a.workload(), b.workload());
    EXPECT_EQ(a.cap(), b.cap());
    EXPECT_EQ(a.sourceHash(), b.sourceHash());
    EXPECT_EQ(a.digest(), b.digest());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        const DynInst &x = a[i];
        const DynInst &y = b[i];
        EXPECT_EQ(x.seq, y.seq) << i;
        EXPECT_EQ(x.pc, y.pc) << i;
        EXPECT_EQ(x.nextPc, y.nextPc) << i;
        EXPECT_EQ(x.taken, y.taken) << i;
        EXPECT_EQ(x.effAddr, y.effAddr) << i;
        EXPECT_EQ(x.si.op, y.si.op) << i;
        EXPECT_EQ(x.si.dest, y.si.dest) << i;
        EXPECT_EQ(x.si.srcs, y.si.srcs) << i;
        EXPECT_EQ(x.si.imm, y.si.imm) << i;
        EXPECT_EQ(fpBits(x.si.fimm), fpBits(y.si.fimm)) << i;
        EXPECT_EQ(x.si.target, y.si.target) << i;
    }
}

TEST(TraceFile, RoundTripSynthetic)
{
    trace::TracePtr t = sampleTrace();
    const std::string path = tmpPath("roundtrip_synth.rrstrace");
    trace::writeTraceFile(path, *t);

    trace::TracePtr back = trace::readTraceFile(path);
    ASSERT_TRUE(back);
    expectSameTrace(*t, *back);
}

TEST(TraceFile, RoundTripRealWorkload)
{
    const auto &w = workloads::workload("media_dct");
    trace::TracePtr t = workloads::captureTrace(w, 10'000);
    const std::string path = tmpPath("roundtrip_real.rrstrace");
    trace::writeTraceFile(path, *t);

    trace::TracePtr back = trace::readTraceFile(path);
    ASSERT_TRUE(back);
    expectSameTrace(*t, *back);

    // The decoded trace must replay exactly like the in-memory one.
    trace::ReplayStream stream(back);
    std::size_t n = 0;
    while (stream.next())
        ++n;
    EXPECT_EQ(n, t->size());
}

TEST(TraceFile, V2BytesArePinnedForSample)
{
    expectPinnedV2(*sampleTrace(), "pin_sample.rrstrace",
                   {162, 0x7971024fdc0eafedULL, 0x2396a37bd9497acaULL,
                    0x62a6ad8dd0510d94ULL});
}

TEST(TraceFile, V2BytesArePinnedForCapture)
{
    trace::TracePtr t =
        workloads::captureTrace(workloads::workload("fp_fir"), 2'000);
    expectPinnedV2(*t, "pin_fp_fir.rrstrace",
                   {26'655, 0x3fcfa89daea6fde7ULL, 0x5a3158740d65b040ULL,
                    0x9eb7920ab5b244f1ULL});
}

TEST(TraceFile, ReadReportsCurrentVersion)
{
    trace::TracePtr t = sampleTrace();
    const std::string path = tmpPath("current_version.rrstrace");
    trace::writeTraceFile(path, *t);
    std::string error;
    std::uint32_t fileVersion = 0;
    trace::TracePtr back =
        trace::tryReadTraceFile(path, error, &fileVersion);
    ASSERT_TRUE(back) << error;
    EXPECT_EQ(fileVersion, trace::traceFileVersion);
}

TEST(TraceFile, TryReadReportsMissingFile)
{
    std::string error;
    trace::TracePtr t =
        trace::tryReadTraceFile(tmpPath("does_not_exist.rrstrace"), error);
    EXPECT_FALSE(t);
    EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

TEST(TraceFile, TryReadRejectsShortFile)
{
    const std::string path = tmpPath("short.rrstrace");
    spit(path, {'R', 'R'});
    std::string error;
    EXPECT_FALSE(trace::tryReadTraceFile(path, error));
    EXPECT_NE(error.find("too short"), std::string::npos) << error;
}

TEST(TraceFile, TryReadRejectsBadMagic)
{
    const std::string path = tmpPath("badmagic.rrstrace");
    auto bytes = std::vector<char>(64, '\0');
    bytes[0] = 'N';
    bytes[1] = 'O';
    bytes[2] = 'P';
    bytes[3] = 'E';
    spit(path, bytes);
    std::string error;
    EXPECT_FALSE(trace::tryReadTraceFile(path, error));
    EXPECT_NE(error.find("bad magic"), std::string::npos) << error;
}

TEST(TraceFile, TryReadRejectsFutureVersion)
{
    // A future version, and version 1: the row-major format of older
    // builds, which this build no longer reads.
    for (const int version : {99, 1}) {
        trace::TracePtr t = sampleTrace();
        const std::string path = tmpPath("future.rrstrace");
        trace::writeTraceFile(path, *t);
        auto bytes = slurp(path);
        bytes[4] = static_cast<char>(version);  // follows the magic
        spit(path, bytes);
        std::string error;
        std::uint32_t fileVersion = 0;
        EXPECT_FALSE(trace::tryReadTraceFile(path, error, &fileVersion));
        EXPECT_EQ(fileVersion, static_cast<std::uint32_t>(version));
        EXPECT_NE(error.find("unsupported trace version"),
                  std::string::npos)
            << error;
        // Diagnostic contract: the message must name both the offending
        // version and the file, so a user mixing binaries and trace
        // dirs can tell *which* file the build cannot read.
        EXPECT_NE(error.find(std::to_string(version)), std::string::npos)
            << error;
        EXPECT_NE(error.find(path), std::string::npos) << error;
    }
}

TEST(TraceFile, TryReadRejectsSequenceGap)
{
    // The seq column is stored as deltas and must be dense: the first
    // seq (1'000'000, a 3-byte varint after the 41-byte header), then
    // 1 per record.
    trace::TracePtr t = sampleTrace();
    const std::string path = tmpPath("seqgap.rrstrace");
    trace::writeTraceFile(path, *t);
    auto bytes = slurp(path);
    const std::size_t secondDelta = 4 + 4 + 1 + 22 + 1 + 8 + 1 + 3;
    ASSERT_EQ(bytes[secondDelta], 1);
    bytes[secondDelta] = 3;
    spit(path, bytes);
    std::string error;
    EXPECT_FALSE(trace::tryReadTraceFile(path, error));
    EXPECT_NE(error.find("sequence gap"), std::string::npos) << error;
}

TEST(TraceFile, TryReadRejectsTruncation)
{
    trace::TracePtr t = sampleTrace();
    const std::string path = tmpPath("trunc.rrstrace");
    trace::writeTraceFile(path, *t);
    auto bytes = slurp(path);
    bytes.resize(bytes.size() - 12);  // lose the trailer + some records
    spit(path, bytes);
    std::string error;
    EXPECT_FALSE(trace::tryReadTraceFile(path, error));
    EXPECT_NE(error.find("truncated"), std::string::npos) << error;
}

TEST(TraceFile, TryReadRejectsFlippedPayloadByte)
{
    trace::TracePtr t = sampleTrace();
    const std::string path = tmpPath("flipped.rrstrace");
    trace::writeTraceFile(path, *t);
    auto bytes = slurp(path);
    // Flip one bit in the middle of the record payload: the digest
    // trailer must catch it (or the record decode must reject it).
    bytes[bytes.size() / 2] =
        static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
    spit(path, bytes);
    std::string error;
    EXPECT_FALSE(trace::tryReadTraceFile(path, error));
    EXPECT_FALSE(error.empty());
}

TEST(TraceFile, TryReadRejectsFlippedDigest)
{
    trace::TracePtr t = sampleTrace();
    const std::string path = tmpPath("baddigest.rrstrace");
    trace::writeTraceFile(path, *t);
    auto bytes = slurp(path);
    bytes.back() = static_cast<char>(bytes.back() ^ 0x01);
    spit(path, bytes);
    std::string error;
    EXPECT_FALSE(trace::tryReadTraceFile(path, error));
    EXPECT_NE(error.find("digest mismatch"), std::string::npos) << error;
}

// The fatal wrapper must exit(1) with the same clear messages — this is
// what rrs-tracetool and any direct readTraceFile caller sees.
using TraceFileDeath = ::testing::Test;

TEST(TraceFileDeath, FatalOnBadMagic)
{
    const std::string path = tmpPath("death_badmagic.rrstrace");
    spit(path, std::vector<char>(64, 'x'));
    EXPECT_EXIT({ trace::readTraceFile(path); },
                ::testing::ExitedWithCode(1), "bad magic");
}

TEST(TraceFileDeath, FatalOnTruncation)
{
    trace::TracePtr t = sampleTrace();
    const std::string path = tmpPath("death_trunc.rrstrace");
    trace::writeTraceFile(path, *t);
    auto bytes = slurp(path);
    bytes.resize(bytes.size() - 12);
    spit(path, bytes);
    EXPECT_EXIT({ trace::readTraceFile(path); },
                ::testing::ExitedWithCode(1), "truncated");
}

TEST(TraceFileDeath, FatalOnDigestMismatch)
{
    trace::TracePtr t = sampleTrace();
    const std::string path = tmpPath("death_digest.rrstrace");
    trace::writeTraceFile(path, *t);
    auto bytes = slurp(path);
    bytes.back() = static_cast<char>(bytes.back() ^ 0x01);
    spit(path, bytes);
    EXPECT_EXIT({ trace::readTraceFile(path); },
                ::testing::ExitedWithCode(1), "digest mismatch");
}

TEST(TraceFileDeath, FatalWriteToUnwritablePath)
{
    trace::TracePtr t = sampleTrace();
    EXPECT_EXIT(
        { trace::writeTraceFile("/nonexistent-dir/x.rrstrace", *t); },
        ::testing::ExitedWithCode(1), "trace file");
}

} // namespace
