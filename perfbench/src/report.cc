/**
 * @file
 * Result printing, the span file, and small statistics helpers.
 */

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "bench.hh"
#include "common/atomicfile.hh"
#include "common/logging.hh"
#include "stats/stats.hh"

namespace rrbench {

namespace {

/** A number with all its significant digits (round-trips a double). */
std::string
fullDigits(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

void
SpanLog::write(const std::string &path) const
{
    std::ostringstream os;
    os << "{\"spans\": [\n";
    for (std::size_t i = 0; i < list.size(); ++i) {
        const Span &s = list[i];
        os << "  {\"name\": " << rrs::stats::jsonQuoted(s.name)
           << ", \"parent\": " << rrs::stats::jsonQuoted(s.parent)
           << ", \"run\": " << s.run << ", \"round\": " << s.round
           << ", \"what\": " << rrs::stats::jsonQuoted(s.what)
           << ", \"start_s\": " << fullDigits(s.start)
           << ", \"seconds\": " << fullDigits(s.seconds)
           << ", \"calls\": " << s.calls << "}"
           << (i + 1 < list.size() ? ",\n" : "\n");
    }
    os << "]}\n";
    std::string error;
    if (!rrs::tryWriteFileAtomic(path, os.str(), error, true))
        rrs_fatal("rrbench: cannot write spans '%s': %s", path.c_str(),
                  error.c_str());
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50.0);
}

void
printResult(const CheckLog &checks, const std::vector<Metric> &metrics,
            const std::vector<Metric> &extra)
{
    const std::size_t shown = 20;
    for (std::size_t i = 0; i < checks.failures.size() && i < shown; ++i)
        std::printf("FAILED %s\n", checks.failures[i].c_str());
    if (checks.failures.size() > shown)
        std::printf("FAILED ... %zu more\n",
                    checks.failures.size() - shown);

    for (const std::vector<Metric> *list : {&metrics, &extra}) {
        for (const Metric &m : *list) {
            std::printf("%-32s %18.6f %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
        }
    }

    std::ostringstream os;
    os << "{\"correct\": "
       << (checks.failures.empty() ? "true" : "false")
       << ", \"attempted\": " << checks.attempted
       << ", \"failed\": " << checks.failedRuns << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        os << (i ? ", " : "") << rrs::stats::jsonQuoted(m.name)
           << ": {\"value\": " << fullDigits(m.value)
           << ", \"unit\": " << rrs::stats::jsonQuoted(m.unit) << "}";
    }
    os << "}}";
    std::printf("%s\n", os.str().c_str());
    std::fflush(stdout);
}

} // namespace rrbench
