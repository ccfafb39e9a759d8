/**
 * @file
 * Versioned binary codec for RecordedTrace: the `.rrstrace` format.
 *
 * Version 2 layout (all multi-byte scalars little endian):
 *
 *   header    u32 magic "RRST", u32 version,
 *             varint nameLen + name bytes,
 *             varint cap, u64 sourceHash, varint record count
 *   columns   the PackedTrace columns (DESIGN §4h), one full column at
 *             a time, each `count` entries long:
 *             varint seq deltas (the first seq, then 1s: traces are
 *             dense), varint pcs,
 *             zigzag varints (nextPc - pc), opcode bytes, flags bytes,
 *             dest register bytes, three source-register byte columns,
 *             zigzag varint immediates
 *   optional  the values the flags bytes announce, one group at a
 *             time in record order: u64 fp-immediate bit patterns,
 *             varint branch targets, varint effective addresses
 *   trailer   u64 record digest (RecordedTrace::digest) then
 *             u64 packed-column digest (PackedTrace::digest)
 *
 * The reader decodes straight into the columns, one cursor per column.
 * Neither digest is stored in memory: the writer folds both from the
 * trace it writes, the reader folds both once after decoding.
 * It reads version 2 only: any other version, including the row-major
 * version 1 of older builds, fails with the version number and path in
 * the message.
 *
 * The reader validates the magic, version, sequence density and both
 * digests.  rrs-tracetool and the tests are the codec's only callers:
 * the harness trace cache captures every trace it needs and never
 * touches disk.  readTraceFile is fatal on error; tryReadTraceFile
 * returns the diagnostic (and the header's version) instead.
 */

#ifndef RRS_TRACE_TRACEFILE_HH
#define RRS_TRACE_TRACEFILE_HH

#include <string>

#include "trace/recorded.hh"

namespace rrs::trace {

/** File magic: "RRST" read as a little-endian u32. */
constexpr std::uint32_t traceFileMagic = 0x54535252u;

/** The one format version this build writes and reads. */
constexpr std::uint32_t traceFileVersion = 2;

/**
 * Write a trace to `path` (via a temp file + rename, so concurrent
 * writers of the same path never expose a torn file).  Missing parent
 * directories are not created.  Fatal on I/O error.
 */
void writeTraceFile(const std::string &path, const RecordedTrace &trace);

/**
 * Read a trace file; returns nullptr and sets `error` on any problem
 * (missing file, bad magic, unsupported version, truncation, corrupt
 * record, sequence gap, digest mismatch) instead of terminating.  On
 * success the returned trace's records and columns match both stored
 * digests.  When `fileVersion` is non-null it
 * receives the version field of the file header whenever the header
 * was readable, even if the read then fails.
 */
TracePtr tryReadTraceFile(const std::string &path, std::string &error,
                          std::uint32_t *fileVersion = nullptr);

/** Read a trace file; fatal with a clear message on any problem. */
TracePtr readTraceFile(const std::string &path);

} // namespace rrs::trace

#endif // RRS_TRACE_TRACEFILE_HH
