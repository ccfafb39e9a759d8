#include "stats.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iomanip>
#include <sstream>

#include "common/logging.hh"

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

StatBase::StatBase(Group *parent, std::string name, std::string desc,
                   std::string unit)
    : statName(std::move(name)), statDesc(std::move(desc)),
      statUnit(std::move(unit))
{
    rrs_assert(parent != nullptr, "stat needs a parent group");
    parent->addStat(this);
}

void
StatBase::dumpSchema(std::ostream &os) const
{
    os << "{\"kind\": \"" << kind() << "\", \"unit\": ";
    jsonEscape(os, statUnit);
    os << ", \"desc\": ";
    jsonEscape(os, statDesc);
    os << "}";
}

void
Scalar::dump(std::ostream &os, const std::string &prefix) const
{
    os << prefix << name() << " " << val << "  # " << desc() << "\n";
}

void
Scalar::dumpJson(std::ostream &os) const
{
    os << "{\"type\": \"scalar\", \"value\": ";
    os << jsonNumber(val);
    os << ", \"desc\": ";
    jsonEscape(os, desc());
    os << "}";
}

void
Average::dump(std::ostream &os, const std::string &prefix) const
{
    os << prefix << name() << " " << mean() << "  # " << desc()
       << " (samples=" << n << " min=" << min() << " max=" << max()
       << ")\n";
}

void
Average::dumpJson(std::ostream &os) const
{
    os << "{\"type\": \"average\", \"mean\": ";
    os << jsonNumber(mean());
    os << ", \"samples\": " << n << ", \"min\": ";
    os << jsonNumber(min());
    os << ", \"max\": ";
    os << jsonNumber(max());
    os << ", \"desc\": ";
    jsonEscape(os, desc());
    os << "}";
}

double
Distribution::mean() const
{
    if (!total)
        return 0.0;
    double sum = 0;
    for (const auto &[k, v] : counts)
        sum += static_cast<double>(k) * static_cast<double>(v);
    return sum / static_cast<double>(total);
}

double
Distribution::percentile(double p) const
{
    if (!total)
        return 0.0;
    if (p <= 0.0)
        return static_cast<double>(minKey());
    if (p >= 100.0)
        return static_cast<double>(maxKey());

    // Rank into the sorted multiset of samples, linear-interpolation
    // convention: rank p/100 * (n-1), fractional ranks blend the two
    // bounding order statistics.
    const double rank =
        p / 100.0 * static_cast<double>(total - 1);
    const std::uint64_t lo = static_cast<std::uint64_t>(rank);
    const double frac = rank - static_cast<double>(lo);

    // Find the sample values at positions lo and lo+1 by walking the
    // cumulative counts; each key k occupies positions
    // [cum, cum + counts[k]).
    std::uint64_t cum = 0;
    double vLo = 0, vHi = 0;
    bool haveLo = false;
    for (const auto &[k, c] : counts) {
        if (!haveLo && lo < cum + c) {
            vLo = static_cast<double>(k);
            haveLo = true;
        }
        if (haveLo && lo + 1 < cum + c) {
            vHi = static_cast<double>(k);
            return vLo + frac * (vHi - vLo);
        }
        cum += c;
    }
    // lo was the last sample (frac == 0 because p < 100 guarantees
    // rank < total-1 only when interpolation found a successor above);
    // report it directly.
    return vLo;
}

void
Distribution::dump(std::ostream &os, const std::string &prefix) const
{
    os << prefix << name() << "::samples " << total << "  # " << desc()
       << "\n";
    os << prefix << name() << "::mean " << mean() << "\n";
    os << prefix << name() << "::min " << minKey() << "\n";
    os << prefix << name() << "::max " << maxKey() << "\n";
    for (const auto &[k, v] : counts) {
        os << prefix << name() << "::" << k << " " << v << " ("
           << std::fixed << std::setprecision(2)
           << (100.0 * fraction(k)) << "%)\n";
        os.unsetf(std::ios_base::floatfield);
    }
}

void
Distribution::dumpJson(std::ostream &os) const
{
    os << "{\"type\": \"distribution\", \"samples\": " << total
       << ", \"mean\": ";
    os << jsonNumber(mean());
    os << ", \"min\": " << minKey() << ", \"max\": " << maxKey()
       << ", \"counts\": {";
    bool first = true;
    for (const auto &[k, v] : counts) {
        if (!first)
            os << ", ";
        first = false;
        os << "\"" << k << "\": " << v;
    }
    os << "}, \"desc\": ";
    jsonEscape(os, desc());
    os << "}";
}

Group::Group(std::string name, Group *parent)
    : groupName(std::move(name)), parent(parent)
{
    if (parent)
        parent->addChild(this);
}

Group::~Group()
{
    if (parent)
        parent->removeChild(this);
}

void
Group::removeChild(Group *g)
{
    children.erase(std::remove(children.begin(), children.end(), g),
                   children.end());
}

void
Group::dump(std::ostream &os, const std::string &prefix) const
{
    std::string self = prefix.empty() ? groupName + "."
                                      : prefix + groupName + ".";
    for (const auto *stat : statList)
        stat->dump(os, self);
    for (const auto *child : children)
        child->dump(os, self);
}

void
Group::dumpJson(std::ostream &os, int indent) const
{
    const std::string pad(static_cast<std::size_t>(indent) + 2, ' ');
    os << "{";
    bool first = true;
    for (const auto *stat : statList) {
        if (!first)
            os << ",";
        first = false;
        os << "\n" << pad;
        jsonEscape(os, stat->name());
        os << ": ";
        stat->dumpJson(os);
    }
    for (const auto *child : children) {
        if (!first)
            os << ",";
        first = false;
        os << "\n" << pad;
        jsonEscape(os, child->name());
        os << ": ";
        child->dumpJson(os, indent + 2);
    }
    if (!first)
        os << "\n" << std::string(static_cast<std::size_t>(indent), ' ');
    os << "}";
}

void
Group::dumpSchemaEntries(std::ostream &os, const std::string &prefix,
                         const std::string &pad, bool &first) const
{
    const std::string self = prefix + groupName + ".";
    for (const auto *stat : statList) {
        if (!first)
            os << ",";
        first = false;
        os << "\n" << pad;
        jsonEscape(os, self + stat->name());
        os << ": ";
        stat->dumpSchema(os);
    }
    for (const auto *child : children)
        child->dumpSchemaEntries(os, self, pad, first);
}

void
Group::dumpSchema(std::ostream &os, int indent) const
{
    const std::string pad(static_cast<std::size_t>(indent) + 2, ' ');
    os << "{";
    bool first = true;
    dumpSchemaEntries(os, "", pad, first);
    if (!first)
        os << "\n" << std::string(static_cast<std::size_t>(indent), ' ');
    os << "}";
}

void
Group::resetStats()
{
    for (auto *stat : statList)
        stat->reset();
    for (auto *child : children)
        child->resetStats();
}

} // namespace rrs::stats
