/**
 * @file
 * Capture-once / replay-many instruction streams.
 *
 * A RecordedTrace is an immutable, shareable dynamic instruction
 * sequence: the exact DynInst records Emulator::step() produces for one
 * (workload, cap) pair (workloads::capture), or a synthetic generator's
 * records (captureSynthetic), held only as PackedTrace columns, plus
 * the identity needed to validate reuse (workload name, stream cap, a
 * hash of the workload's assembly source).  Its FNV-1a
 * content digest over every field of every record is not stored:
 * digest() folds it from the columns for the callers that check it
 * (the tests and the benchmark's input check), and capture pays
 * nothing for it.
 *
 * A ReplayStream is a cheap cursor over a shared RecordedTrace: many
 * sweep lanes replay the same read-only trace concurrently, each with
 * its own position, so an N-config sweep pays the functional-emulation
 * cost once instead of N times.  Replaying is bit-identical to stepping
 * the emulator — the determinism contract of harness/sweep.hh holds
 * across cached-vs-fresh streams as well as across thread counts.
 */

#ifndef RRS_TRACE_RECORDED_HH
#define RRS_TRACE_RECORDED_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/dyninst.hh"
#include "trace/fnv.hh"
#include "trace/packed.hh"

namespace rrs::trace {

/** An immutable captured dynamic instruction sequence. */
class RecordedTrace
{
  public:
    /**
     * @param workload workload name the trace was captured from
     * @param cap stream-length cap used at capture (post-warmup,
     *        already normalised: never 0)
     * @param sourceHash hash of the workload's assembly source
     *        (workloads::sourceHash), naming the kernel version the
     *        records came from
     * @param records the captured records' columns
     */
    RecordedTrace(std::string workload, std::uint64_t cap,
                  std::uint64_t sourceHash, PackedTrace records);

    /** A trace of hand-built records, numbered densely. */
    RecordedTrace(std::string workload, std::uint64_t cap,
                  std::uint64_t sourceHash,
                  const std::vector<DynInst> &insts);

    const std::string &workload() const { return workloadName; }
    std::uint64_t cap() const { return streamCap; }
    std::uint64_t sourceHash() const { return srcHash; }

    /**
     * FNV-1a digest over every field of every record: foldInst over
     * record(0..size-1) from digestSeed, computed on every call.  The
     * trace is immutable, so any number of threads may call it at once.
     */
    std::uint64_t digest() const;

    std::size_t size() const { return cols.size(); }
    bool empty() const { return cols.empty(); }

    /** Record i, rebuilt from the columns. */
    DynInst operator[](std::size_t i) const { return cols.record(i); }

    /** The columns: the trace's only in-memory form (DESIGN §4h). */
    const PackedTrace &packed() const { return cols; }

    /** FNV-1a offset basis: the digest of an empty trace. */
    static constexpr std::uint64_t digestSeed = fnv::offset;

    /** Fold one record's fields into a running FNV-1a state. */
    static void foldInst(std::uint64_t &h, const DynInst &di);

  private:
    std::string workloadName;
    std::uint64_t streamCap;
    std::uint64_t srcHash;
    PackedTrace cols;
};

/** Shared-ownership handle to an immutable trace. */
using TracePtr = std::shared_ptr<const RecordedTrace>;

/**
 * A cursor over a shared RecordedTrace.  next() and seek() touch only
 * the cursor, never the trace, so any number of ReplayStreams can read
 * one trace concurrently.
 */
class ReplayStream : public InstStream
{
  public:
    explicit ReplayStream(TracePtr trace);

    std::optional<DynInst> next() override;

    /**
     * Reposition the cursor to record `p` (clamped to the trace end).
     * The sampling controller uses this to reconcile the cursor with
     * the commit point after a detailed window — the core's fetch
     * lookahead leaves the cursor ahead of the last committed record —
     * and to jump over functionally-warmed / skipped spans.  Does not
     * count toward replayed(): only records actually emitted do.
     */
    void seek(std::size_t p) { pos = p < src->size() ? p : src->size(); }

    /** Records emitted over the stream's lifetime. */
    std::uint64_t replayed() const { return emitted; }

    const RecordedTrace &trace() const { return *src; }

  private:
    TracePtr src;
    std::size_t pos = 0;
    std::uint64_t emitted = 0;
};

} // namespace rrs::trace

#endif // RRS_TRACE_RECORDED_HH
