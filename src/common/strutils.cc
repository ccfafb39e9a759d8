#include "strutils.hh"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <locale>
#include <sstream>

#include "common/logging.hh"

namespace rrs {

std::string_view
trim(std::string_view s)
{
    std::size_t b = 0;
    while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    std::size_t e = s.size();
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

std::vector<std::string_view>
split(std::string_view s, char delim)
{
    std::vector<std::string_view> out;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= s.size(); ++i) {
        if (i == s.size() || s[i] == delim) {
            out.push_back(s.substr(start, i - start));
            start = i + 1;
        }
    }
    return out;
}

std::string
toLower(std::string_view s)
{
    std::string out(s);
    for (auto &c : out)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return out;
}

std::optional<std::int64_t>
parseInt(std::string_view s)
{
    s = trim(s);
    if (!s.empty() && s.front() == '#')
        s.remove_prefix(1);
    if (s.empty())
        return std::nullopt;
    std::string buf(s);
    errno = 0;
    char *end = nullptr;
    long long v = std::strtoll(buf.c_str(), &end, 0);
    if (errno != 0 || end != buf.c_str() + buf.size())
        return std::nullopt;
    return static_cast<std::int64_t>(v);
}

const char *
parseDoublePrefix(const char *first, const char *last, double &out)
{
#if defined(__cpp_lib_to_chars)
    // std::from_chars always parses with '.' as the decimal separator,
    // so a comma-decimal global locale (de_DE and friends) cannot skew
    // how ledger nodes or sweep matrices read back.
    // std::strtod, which this replaces, honours the locale and would
    // silently stop at the '.' there.
    const auto [ptr, ec] = std::from_chars(first, last, out);
    if (ec == std::errc{})
        return ptr;
    // result_out_of_range is a parse failure too, like the
    // strtod-with-errno check this replaces: no serializer here ever
    // emits a non-representable literal.
    return first;
#else
    // Pre-<charconv>-FP toolchains: an istringstream imbued with the
    // classic locale is the portable locale-independent fallback.
    std::istringstream is(std::string(first, last));
    is.imbue(std::locale::classic());
    double v = 0;
    if (!(is >> v))
        return first;
    out = v;
    if (is.eof())
        return last;
    return first + is.tellg();
#endif
}

std::optional<double>
parseDouble(std::string_view s)
{
    s = trim(s);
    if (!s.empty() && s.front() == '#')
        s.remove_prefix(1);
    // strtod accepted a leading '+'; std::from_chars does not.
    if (!s.empty() && s.front() == '+')
        s.remove_prefix(1);
    if (s.empty())
        return std::nullopt;
    double v = 0;
    const char *first = s.data();
    const char *last = s.data() + s.size();
    if (parseDoublePrefix(first, last, v) != last)
        return std::nullopt;
    return v;
}

bool
envFlag(const char *name)
{
    const char *env = std::getenv(name);
    const std::string_view v = env ? env : "";
    if (v.empty() || v == "0")
        return false;
    if (v != "1")
        rrs_fatal("%s must be 0 or 1, got '%s'", name, env);
    return true;
}

std::optional<std::int64_t>
envCount(const char *name, std::int64_t min, std::int64_t max)
{
    const char *env = std::getenv(name);
    if (!env || *env == '\0')
        return std::nullopt;
    const std::optional<std::int64_t> v = parseInt(env);
    if (!v || *v < min || *v > max)
        rrs_fatal("%s must be a %s integer up to %lld, got '%s'", name,
                  min == 0 ? "non-negative" : "positive",
                  static_cast<long long>(max), env);
    return v;
}

} // namespace rrs
