#include "telemetry.hh"

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <sstream>

#include "common/atomicfile.hh"
#include "common/logging.hh"
#include "stats/stats.hh"

namespace rrs::obs {

namespace {

/**
 * Directory override state.  A mutex, not an atomic string: the
 * override is set once by a test or a bench before sweeps run, and
 * read once per sweep — never on a hot path.
 */
std::mutex dirMutex;
std::string dirOverride;
bool dirOverridden = false;

/** Process-wide sweep sequence number for output file names. */
std::atomic<std::uint64_t> sweepSeq{0};

void
writeSpanEvent(std::ostream &os, const TelemetrySpan &s,
               std::uint64_t tid)
{
    os << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << tid << ",\"name\":"
       << stats::jsonQuoted(s.name) << ",\"ts\":" << s.ts
       << ",\"dur\":" << s.dur;
    if (!s.args.empty()) {
        os << ",\"args\":{";
        bool first = true;
        for (const TelemetryArg &a : s.args) {
            if (!first)
                os << ",";
            first = false;
            os << stats::jsonQuoted(a.key) << ":" << a.json;
        }
        os << "}";
    }
    os << "}";
}

void
writeCounterEvent(std::ostream &os, const TelemetryCounterSample &c,
                  std::uint64_t tid, std::uint64_t runIndex)
{
    // Chrome keys counter tracks by (pid, name), not tid, so the run
    // index goes into the track name to keep runs' counters apart.
    os << "{\"ph\":\"C\",\"pid\":1,\"tid\":" << tid << ",\"name\":"
       << stats::jsonQuoted(c.track + " (run " +
                            std::to_string(runIndex) + ")")
       << ",\"ts\":" << c.ts << ",\"args\":{";
    bool first = true;
    for (const auto &[key, value] : c.values) {
        if (!first)
            os << ",";
        first = false;
        os << stats::jsonQuoted(key) << ":" << stats::jsonNumber(value);
    }
    os << "}}";
}

void
writeThreadName(std::ostream &os, std::uint64_t tid,
                const std::string &name)
{
    os << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
       << ",\"name\":\"thread_name\",\"args\":{\"name\":"
       << stats::jsonQuoted(name) << "}}";
}

} // namespace

void
argStr(TelemetrySpan &s, std::string key, const std::string &value)
{
    s.args.push_back(TelemetryArg{std::move(key),
                                  stats::jsonQuoted(value)});
}

void
argNum(TelemetrySpan &s, std::string key, double value)
{
    s.args.push_back(TelemetryArg{std::move(key), stats::jsonNumber(value)});
}

void
argInt(TelemetrySpan &s, std::string key, std::uint64_t value)
{
    s.args.push_back(TelemetryArg{std::move(key),
                                  std::to_string(value)});
}

std::string
telemetryDir()
{
    {
        std::lock_guard<std::mutex> lock(dirMutex);
        if (dirOverridden)
            return dirOverride;
    }
    const char *env = std::getenv("RRS_TELEMETRY");
    return env ? env : "";
}

void
setTelemetryDir(std::string dir, bool reset)
{
    std::lock_guard<std::mutex> lock(dirMutex);
    dirOverridden = !reset;
    dirOverride = reset ? std::string() : std::move(dir);
}

std::string
renderSweepTrace(const TelemetrySweepInfo &info,
                 const std::vector<const RunTelemetry *> &runs)
{
    std::ostringstream os;
    // One event per line: the file diffs cleanly and stays a single
    // valid JSON document per the trace-event spec ("traceEvents"
    // array form, which Perfetto and chrome://tracing both accept).
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    os << "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
          "\"args\":{\"name\":"
       << stats::jsonQuoted("rrsim " + info.label +
                            " (simulated time: 1us = 1 cycle)")
       << "}}";

    // Per-run tracks, tid = submission index.
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const RunTelemetry *rt = runs[i];
        if (!rt || rt->empty())
            continue;
        os << ",\n";
        writeThreadName(os, i,
                        "run " + std::to_string(i) +
                            (rt->title().empty() ? std::string()
                                                 : ": " + rt->title()));
        for (const TelemetrySpan &s : rt->spans()) {
            os << ",\n";
            writeSpanEvent(os, s, i);
        }
        for (const TelemetryCounterSample &c : rt->counters()) {
            os << ",\n";
            writeCounterEvent(os, c, i, i);
        }
    }

    // The sweep track rides above the runs (tid = run count).  Its
    // spans are denominated in *instructions* (capture work has no
    // cycle clock), which the track name declares.
    const std::uint64_t sweepTid = runs.size();
    os << ",\n";
    writeThreadName(os, sweepTid, "sweep (1us = 1 emulated inst)");
    {
        TelemetrySpan capture{"capture", 0, info.capturedInsts, {}};
        argInt(capture, "captured_insts", info.capturedInsts);
        argInt(capture, "replayed_insts", info.replayedInsts);
        os << ",\n";
        writeSpanEvent(os, capture, sweepTid);

        // Column packing rides after capture, denominated in records
        // (deterministic — host pack seconds never reach the trace
        // bytes, which must be identical across thread counts).
        TelemetrySpan pack{"pack", info.capturedInsts,
                           info.packedRecords, {}};
        argInt(pack, "packed_records", info.packedRecords);
        os << ",\n";
        writeSpanEvent(os, pack, sweepTid);

        TelemetrySpan merge{"stats-merge",
                            info.capturedInsts + info.packedRecords, 0,
                            {}};
        argInt(merge, "runs", info.runs);
        os << ",\n";
        writeSpanEvent(os, merge, sweepTid);
    }

    os << "\n]}\n";
    return os.str();
}

std::string
writeSweepTrace(const std::string &dir, const TelemetrySweepInfo &info,
                const std::vector<const RunTelemetry *> &runs)
{
    if (dir.empty())
        return "";
    const std::uint64_t seq =
        sweepSeq.fetch_add(1, std::memory_order_relaxed);
    const std::string path = dir + "/" + info.label + "_sweep" +
                             std::to_string(seq) + ".trace.json";
    const std::string body = renderSweepTrace(info, runs);
    std::string error;
    if (!tryWriteFileAtomic(path, body, error)) {
        rrs_warn("telemetry: could not write trace '%s': %s",
                 path.c_str(), error.c_str());
        return "";
    }
    return path;
}

bool
parseSweepTraceName(const std::string &name, std::string &label,
                    std::uint64_t &seq)
{
    constexpr const char suffix[] = ".trace.json";
    constexpr std::size_t suffixLen = sizeof(suffix) - 1;
    if (name.size() <= suffixLen ||
        name.compare(name.size() - suffixLen, suffixLen, suffix) != 0)
        return false;
    const std::string stem = name.substr(0, name.size() - suffixLen);
    // The label itself may contain "_sweep"; the index is whatever
    // follows the *last* occurrence, and must be all digits.
    const std::size_t mark = stem.rfind("_sweep");
    if (mark == std::string::npos || mark == 0)
        return false;
    const std::string digits = stem.substr(mark + 6);
    if (digits.empty())
        return false;
    std::uint64_t v = 0;
    for (char c : digits) {
        if (c < '0' || c > '9')
            return false;
        v = v * 10 + static_cast<std::uint64_t>(c - '0');
    }
    label = stem.substr(0, mark);
    seq = v;
    return true;
}

} // namespace rrs::obs
