#include "stats.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace rrs::stats {

void
jsonEscape(std::ostream &os, const std::string &s)
{
    os << '"';
    for (char c : s) {
        switch (c) {
          case '"':  os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\t': os << "\\t"; break;
          case '\r': os << "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                os << buf;
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

std::string
jsonQuoted(const std::string &s)
{
    std::ostringstream os;
    jsonEscape(os, s);
    return os.str();
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

double
percentile(std::vector<std::uint64_t> samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    if (p <= 0.0)
        return static_cast<double>(samples.front());
    if (p >= 100.0)
        return static_cast<double>(samples.back());

    const double rank =
        p / 100.0 * static_cast<double>(samples.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const double vLo = static_cast<double>(samples[lo]);
    // A rank that rounds up to the last sample has no successor.
    if (lo + 1 >= samples.size())
        return vLo;
    const double frac = rank - static_cast<double>(lo);
    const double vHi = static_cast<double>(samples[lo + 1]);
    return vLo + frac * (vHi - vLo);
}

} // namespace rrs::stats
