#include "flightrec.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/atomicfile.hh"
#include "common/logging.hh"
#include "obs/telemetry.hh"

namespace rrs::obs {

namespace {

/** Process-wide dump file counter (several cores may dump). */
std::atomic<std::uint64_t> dumpSeq{0};

} // namespace

const char *
flightEventKindName(FlightEventKind k)
{
    switch (k) {
      case FlightEventKind::Alloc:  return "alloc";
      case FlightEventKind::Commit: return "commit";
      case FlightEventKind::Squash: return "squash";
      case FlightEventKind::Flush:  return "flush";
    }
    return "?";
}

FlightRecorder::FlightRecorder(std::uint32_t depth)
    : ring(depth ? depth : 1)
{
}

FlightRecorder::~FlightRecorder()
{
    if (armed)
        removeCrashHook(hookId);
}

void
FlightRecorder::setContext(std::string key, std::string value)
{
    context.emplace_back(std::move(key), std::move(value));
}

void
FlightRecorder::arm()
{
    if (armed)
        return;
    // The hook captures `this`: the recorder outlives its armed window
    // by construction (the destructor unhooks), and on a crash the
    // process never returns to the code that would destroy it.
    hookId = addCrashHook([this] {
        const std::string path = dumpToFile();
        if (!path.empty())
            std::fprintf(stderr, "flight recorder: dumped %s\n",
                         path.c_str());
    });
    armed = true;
}

std::vector<FlightEvent>
FlightRecorder::events() const
{
    std::vector<FlightEvent> out;
    out.reserve(recorded);
    // Oldest first: when the ring has wrapped the oldest entry sits at
    // `head`, otherwise at 0.
    const std::size_t start = recorded < ring.size() ? 0 : head;
    for (std::size_t i = 0; i < recorded; ++i)
        out.push_back(ring[(start + i) % ring.size()]);
    return out;
}

void
FlightRecorder::dump(std::ostream &os) const
{
    os << "=== flight recorder ===\n";
    for (const auto &[key, value] : context)
        os << key << ": " << value << "\n";
    os << "depth: " << ring.size() << "\n";
    os << "events: " << recorded << " (oldest first)\n";
    for (const FlightEvent &e : events()) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "cycle %llu seq %llu %-6s %s p%u v%u "
                      "freeInt %d freeFp %d\n",
                      static_cast<unsigned long long>(e.cycle),
                      static_cast<unsigned long long>(e.seq),
                      flightEventKindName(e.kind),
                      e.cls == 0 ? "int" : "fp",
                      static_cast<unsigned>(e.reg),
                      static_cast<unsigned>(e.version),
                      e.freeInt, e.freeFp);
        os << buf;
    }
    os << "=== end flight recorder ===\n";
}

std::string
FlightRecorder::dumpToFile() const
{
    const std::string dir = telemetryDir();
    const std::uint64_t n =
        dumpSeq.fetch_add(1, std::memory_order_relaxed);
    const std::string path = (dir.empty() ? std::string(".") : dir) +
                             "/flightrec_" + std::to_string(n) +
                             ".dump";
    std::ostringstream os;
    dump(os);
    std::string error;
    if (!tryWriteFileAtomic(path, os.str(), error)) {
        std::fprintf(stderr,
                     "flight recorder: could not write %s: %s\n",
                     path.c_str(), error.c_str());
        return "";
    }
    return path;
}

} // namespace rrs::obs
