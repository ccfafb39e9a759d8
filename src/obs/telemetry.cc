#include "telemetry.hh"

#include <cstdlib>
#include <mutex>

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

} // namespace

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
