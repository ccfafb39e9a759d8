/**
 * @file
 * rrs-teleview: summarize telemetry sweep traces on the terminal.
 *
 *   rrs-teleview [--spans] <trace.json|dir>...
 *
 * Each argument is a `*.trace.json` file written by a sweep under
 * RRS_TELEMETRY, or a directory of them.  For every trace the tool
 * prints the process title, the per-run track list (tid, title, run
 * span length in cycles, counter sample count) and the sweep track's
 * capture/merge spans — a quick triage view without loading Perfetto.
 * `--spans` additionally lists every span event per track.
 *
 * Exit status: 0 on success, 2 on unreadable or malformed input.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <tuple>

#include "common/atomicfile.hh"
#include "obs/jsonlite.hh"
#include "obs/telemetry.hh"

namespace {

namespace fs = std::filesystem;
using rrs::obs::json::Value;

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--spans] <trace.json|dir>...\n"
                 "  summarize telemetry traces written under "
                 "RRS_TELEMETRY\n",
                 argv0);
    std::exit(2);
}

/** One reconstructed track of a trace file. */
struct Track
{
    std::string name;           //!< thread_name metadata (may be "")
    std::uint64_t spans = 0;
    std::uint64_t counterSamples = 0;
    std::uint64_t maxEndTs = 0; //!< max span ts+dur on this track
    std::vector<std::string> spanLines;
};

std::string
describeArgs(const Value &ev)
{
    const Value *args = ev.find("args");
    if (!args || args->members.empty())
        return "";
    std::ostringstream os;
    os << " {";
    bool first = true;
    for (const auto &[key, v] : args->members) {
        if (!first)
            os << ", ";
        first = false;
        os << key << "=";
        if (v.isString())
            os << v.str;
        else if (v.isNumber())
            os << v.num;
        else
            os << "?";
    }
    os << "}";
    return os.str();
}

int
summarizeTrace(const std::string &path, bool listSpans)
{
    std::string text;
    if (!rrs::tryReadFile(path, text)) {
        std::fprintf(stderr, "error: cannot open '%s'\n", path.c_str());
        return 2;
    }
    Value doc;
    std::string error;
    if (!rrs::obs::json::parse(text, doc, &error)) {
        std::fprintf(stderr, "error: %s: %s\n", path.c_str(),
                     error.c_str());
        return 2;
    }
    const Value *events = doc.find("traceEvents");
    if (!events || !events->isArray()) {
        std::fprintf(stderr, "error: %s: no traceEvents array\n",
                     path.c_str());
        return 2;
    }

    std::string processName;
    std::map<std::uint64_t, Track> tracks;   // keyed by tid, sorted
    for (const Value &ev : events->arr) {
        const Value *ph = ev.find("ph");
        if (!ph || !ph->isString())
            continue;
        const Value *tidV = ev.find("tid");
        const std::uint64_t tid =
            tidV && tidV->isNumber()
                ? static_cast<std::uint64_t>(tidV->num)
                : 0;
        const Value *nameV = ev.find("name");
        const std::string name =
            nameV && nameV->isString() ? nameV->str : "";

        if (ph->str == "M") {
            const Value *args = ev.find("args");
            const Value *n = args ? args->find("name") : nullptr;
            if (name == "process_name" && n)
                processName = n->str;
            else if (name == "thread_name" && n)
                tracks[tid].name = n->str;
        } else if (ph->str == "X") {
            Track &t = tracks[tid];
            ++t.spans;
            const Value *ts = ev.find("ts");
            const Value *dur = ev.find("dur");
            const std::uint64_t end =
                (ts && ts->isNumber()
                     ? static_cast<std::uint64_t>(ts->num)
                     : 0) +
                (dur && dur->isNumber()
                     ? static_cast<std::uint64_t>(dur->num)
                     : 0);
            t.maxEndTs = std::max(t.maxEndTs, end);
            if (listSpans) {
                std::ostringstream os;
                os << "      " << name << " ts="
                   << (ts ? ts->num : 0.0) << " dur="
                   << (dur ? dur->num : 0.0) << describeArgs(ev);
                t.spanLines.push_back(os.str());
            }
        } else if (ph->str == "C") {
            ++tracks[tid].counterSamples;
        }
    }

    std::printf("%s\n", path.c_str());
    if (!processName.empty())
        std::printf("  process: %s\n", processName.c_str());
    std::printf("  tracks: %zu, events: %zu\n", tracks.size(),
                events->arr.size());
    for (const auto &[tid, t] : tracks) {
        std::printf("    tid %-4llu %-40s spans %4llu  counter "
                    "samples %6llu  span end %llu\n",
                    static_cast<unsigned long long>(tid),
                    t.name.empty() ? "(unnamed)" : t.name.c_str(),
                    static_cast<unsigned long long>(t.spans),
                    static_cast<unsigned long long>(t.counterSamples),
                    static_cast<unsigned long long>(t.maxEndTs));
        for (const auto &line : t.spanLines)
            std::printf("%s\n", line.c_str());
    }
    return 0;
}

/**
 * Expand an argument to trace files (a file stays itself).  Sweep
 * traces sort by label then *numeric* sweep index — a lexicographic
 * sort would list `x_sweep10` before `x_sweep2`; files that are not
 * sweep traces sort lexicographically after parseable ones with the
 * same prefix.
 */
std::vector<std::string>
traceFiles(const std::string &arg)
{
    if (!fs::is_directory(arg))
        return {arg};
    std::vector<std::string> out;
    for (const auto &e : fs::directory_iterator(arg)) {
        const std::string name = e.path().filename().string();
        if (e.is_regular_file() && name.size() > 11 &&
            name.compare(name.size() - 11, 11, ".trace.json") == 0) {
            out.push_back(e.path().string());
        }
    }
    auto key = [](const std::string &path) {
        const std::string name = fs::path(path).filename().string();
        std::string label;
        std::uint64_t seq = 0;
        if (!rrs::obs::parseSweepTraceName(name, label, seq)) {
            label = name;
            seq = 0;
        }
        return std::make_tuple(label, seq, path);
    };
    std::sort(out.begin(), out.end(),
              [&key](const std::string &a, const std::string &b) {
                  return key(a) < key(b);
              });
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    bool listSpans = false;
    std::vector<std::string> args;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--spans") == 0)
            listSpans = true;
        else if (std::strcmp(argv[i], "--help") == 0 ||
                 std::strcmp(argv[i], "-h") == 0)
            usage(argv[0]);
        else
            args.emplace_back(argv[i]);
    }
    if (args.empty())
        usage(argv[0]);

    int worst = 0;
    std::size_t shown = 0;
    for (const auto &arg : args) {
        for (const auto &path : traceFiles(arg)) {
            worst = std::max(worst, summarizeTrace(path, listSpans));
            ++shown;
        }
    }
    if (shown == 0) {
        std::fprintf(stderr, "error: no .trace.json files found\n");
        return 2;
    }
    return worst;
}
