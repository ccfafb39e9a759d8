#include "jsonlite.hh"

#include <cctype>
#include <cmath>

#include "common/logging.hh"
#include "common/strutils.hh"

namespace rrs::obs::json {

const Value *
Value::find(const std::string &key) const
{
    if (k != Kind::Object)
        return nullptr;
    for (const auto &[name, value] : members) {
        if (name == key)
            return &value;
    }
    return nullptr;
}

namespace {

/** Recursive-descent parser over a string view with a cursor. */
class Parser
{
  public:
    Parser(const std::string &text, std::string *error)
        : text(text), error(error) {}

    bool
    run(Value &out)
    {
        skipWs();
        if (!parseValue(out))
            return false;
        skipWs();
        if (pos != text.size())
            return fail("trailing characters after document");
        return true;
    }

  private:
    bool
    fail(const char *msg)
    {
        if (error)
            *error = formatString("json parse error at offset %zu: %s",
                                  pos, msg);
        return false;
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos])))
            ++pos;
    }

    bool
    literal(const char *word)
    {
        std::size_t n = 0;
        while (word[n]) {
            if (pos + n >= text.size() || text[pos + n] != word[n])
                return false;
            ++n;
        }
        pos += n;
        return true;
    }

    bool
    parseValue(Value &out)
    {
        if (pos >= text.size())
            return fail("unexpected end of input");
        char c = text[pos];
        switch (c) {
          case '{': return parseObject(out);
          case '[': return parseArray(out);
          case '"': out.k = Value::Kind::String;
                    return parseString(out.str);
          case 't':
            if (!literal("true"))
                return fail("bad literal");
            out.k = Value::Kind::Bool;
            out.boolean = true;
            return true;
          case 'f':
            if (!literal("false"))
                return fail("bad literal");
            out.k = Value::Kind::Bool;
            out.boolean = false;
            return true;
          case 'n':
            if (!literal("null"))
                return fail("bad literal");
            out.k = Value::Kind::Null;
            return true;
          default:
            return parseNumber(out);
        }
    }

    bool
    parseString(std::string &out)
    {
        if (text[pos] != '"')
            return fail("expected string");
        ++pos;
        out.clear();
        while (pos < text.size() && text[pos] != '"') {
            char c = text[pos++];
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos >= text.size())
                return fail("unterminated escape");
            char e = text[pos++];
            switch (e) {
              case '"':  out.push_back('"'); break;
              case '\\': out.push_back('\\'); break;
              case '/':  out.push_back('/'); break;
              case 'n':  out.push_back('\n'); break;
              case 't':  out.push_back('\t'); break;
              case 'r':  out.push_back('\r'); break;
              case 'b':  out.push_back('\b'); break;
              case 'f':  out.push_back('\f'); break;
              case 'u': {
                if (pos + 4 > text.size())
                    return fail("short \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text[pos++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return fail("bad \\u escape");
                }
                // stats::jsonEscape only escapes control characters,
                // so plain one-byte code points suffice here.
                out.push_back(static_cast<char>(code & 0xff));
                break;
              }
              default:
                return fail("unknown escape");
            }
        }
        if (pos >= text.size())
            return fail("unterminated string");
        ++pos;   // closing quote
        return true;
    }

    bool
    parseNumber(Value &out)
    {
        // Locale-independent (common/strutils.hh): std::strtod honours
        // the global locale's decimal separator, so under de_DE-style
        // locales it would read "1.5" as 1 and desynchronise the
        // cursor; every float in ledger nodes and sweep matrices
        // would misparse.
        const char *start = text.c_str() + pos;
        const char *last = text.c_str() + text.size();
        double v = 0;
        const char *end = parseDoublePrefix(start, last, v);
        if (end == start)
            return fail("expected value");
        pos += static_cast<std::size_t>(end - start);
        out.k = Value::Kind::Number;
        out.num = v;
        return true;
    }

    bool
    parseObject(Value &out)
    {
        out.k = Value::Kind::Object;
        ++pos;   // '{'
        skipWs();
        if (pos < text.size() && text[pos] == '}') {
            ++pos;
            return true;
        }
        while (true) {
            skipWs();
            std::string key;
            if (pos >= text.size() || text[pos] != '"')
                return fail("expected member name");
            if (!parseString(key))
                return false;
            skipWs();
            if (pos >= text.size() || text[pos] != ':')
                return fail("expected ':'");
            ++pos;
            skipWs();
            Value member;
            if (!parseValue(member))
                return false;
            out.members.emplace_back(std::move(key), std::move(member));
            skipWs();
            if (pos >= text.size())
                return fail("unterminated object");
            if (text[pos] == ',') {
                ++pos;
                continue;
            }
            if (text[pos] == '}') {
                ++pos;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    bool
    parseArray(Value &out)
    {
        out.k = Value::Kind::Array;
        ++pos;   // '['
        skipWs();
        if (pos < text.size() && text[pos] == ']') {
            ++pos;
            return true;
        }
        while (true) {
            skipWs();
            Value elem;
            if (!parseValue(elem))
                return false;
            out.arr.push_back(std::move(elem));
            skipWs();
            if (pos >= text.size())
                return fail("unterminated array");
            if (text[pos] == ',') {
                ++pos;
                continue;
            }
            if (text[pos] == ']') {
                ++pos;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    const std::string &text;
    std::string *error;
    std::size_t pos = 0;
};

} // namespace

bool
parse(const std::string &text, Value &out, std::string *error)
{
    Parser p(text, error);
    return p.run(out);
}

bool
checkNoDuplicateKeys(const Value &obj, const std::string &document,
                     const std::string &where, std::string &error)
{
    for (std::size_t i = 0; i < obj.members.size(); ++i) {
        for (std::size_t j = i + 1; j < obj.members.size(); ++j) {
            if (obj.members[i].first == obj.members[j].first) {
                error = document + ": duplicate key '" +
                        obj.members[i].first + "' in " + where;
                return false;
            }
        }
    }
    return true;
}

bool
readInteger(const Value &v, std::uint64_t lo, std::uint64_t hi,
            const std::string &field, std::uint64_t &out,
            std::string &error)
{
    // 2^64 is exact as a double, and every whole double in [0, 2^64)
    // converts to std::uint64_t exactly.
    if (v.isNumber() && v.num == std::floor(v.num) && v.num >= 0 &&
        v.num < 0x1p64) {
        const auto n = static_cast<std::uint64_t>(v.num);
        if (n >= lo && n <= hi) {
            out = n;
            return true;
        }
    }
    const std::string top = std::to_string(hi);
    error = field + " must be " +
            (lo == 0   ? "a non-negative integer up to " + top
             : lo == 1 ? "a positive integer up to " + top
                       : "an integer in " + std::to_string(lo) + ".." + top);
    return false;
}

} // namespace rrs::obs::json
