/**
 * @file
 * A minimal JSON DOM: enough to parse what the tree's own writers
 * emit (objects, arrays, strings, numbers, bools, null) — ledger
 * nodes, the campaign sidecar, telemetry traces — and the sweep
 * matrices and manifests users write, without an external dependency.
 *
 * Object member order is preserved (writers emit a stable order, and
 * tests compare against it).  Numbers are stored as double, which is
 * exact for every value stats::jsonNumber writes (%.17g).
 *
 * The typed readers below are the one rule every parser of those
 * documents applies to a member: present, of the right kind, in range,
 * or refused with a diagnostic naming it by the caller's label.
 */

#ifndef RRS_OBS_JSONLITE_HH
#define RRS_OBS_JSONLITE_HH

#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace rrs::obs::json {

/** A parsed JSON value. */
class Value
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind() const { return k; }
    bool isNull() const { return k == Kind::Null; }
    bool isObject() const { return k == Kind::Object; }
    bool isArray() const { return k == Kind::Array; }
    bool isNumber() const { return k == Kind::Number; }
    bool isString() const { return k == Kind::String; }

    double num = 0;
    bool boolean = false;
    std::string str;
    std::vector<Value> arr;
    /** Members in document order. */
    std::vector<std::pair<std::string, Value>> members;

    /** Object member lookup; nullptr when absent or not an object. */
    const Value *find(const std::string &key) const;

    Kind k = Kind::Null;
};

/**
 * Parse a complete JSON document.
 * @param text  the document
 * @param error set to a message on failure (optional)
 * @return the value, or nullopt-style Null with *ok == false
 */
bool parse(const std::string &text, Value &out, std::string *error = nullptr);

/**
 * Refuse an object with a repeated member name.  parse() keeps every
 * member in document order, so a reader of a hand-written document
 * (sweep matrices, campaign manifests) calls this to make a duplicated
 * key a diagnostic instead of a silently ignored member.  On failure
 * `error` reads "<document>: duplicate key '<key>' in <where>".
 */
bool checkNoDuplicateKeys(const Value &obj, const std::string &document,
                          const std::string &where, std::string &error);

/**
 * Read an integer: `v` must be a whole number in [lo, hi], where `hi`
 * is the most the field's type or its consumer takes, so a value out
 * of range fails by name instead of being cast.  On failure `error`
 * reads "<field> must be <range>".
 */
bool readInteger(const Value &v, std::uint64_t lo, std::uint64_t hi,
                 const std::string &field, std::uint64_t &out,
                 std::string &error);

/**
 * Read member `key` of `obj` as its writer emits it, by the type of
 * `out`: a std::string, a double (any JSON number), an integer type (a
 * count: readInteger over the type's range), a `const Value *` (an
 * object) or a `const std::vector<Value> *` (an array).  An absent
 * member fails when `required`; otherwise a scalar `out` keeps its
 * value and a nested one reads as empty.
 * @return false with `error` naming `field` ("<field> is missing",
 *         "<field> must be a string", ...) on anything else.
 */
template <typename T>
bool
readMember(const Value &obj, const char *key, const std::string &field,
           bool required, T &out, std::string &error)
{
    using Kind = Value::Kind;
    constexpr Kind kind =
        std::is_same_v<T, std::string>                  ? Kind::String
        : std::is_same_v<T, const Value *>              ? Kind::Object
        : std::is_same_v<T, const std::vector<Value> *> ? Kind::Array
                                                        : Kind::Number;
    static const Value empty;
    const Value *v = obj.find(key);
    if (!v) {
        if (required)
            error = field + " is missing";
        if constexpr (kind == Kind::Object)
            out = &empty;
        else if constexpr (kind == Kind::Array)
            out = &empty.arr;
        return !required;
    }
    if constexpr (std::is_integral_v<T>) {
        std::uint64_t n = 0;
        if (!readInteger(*v, 0, std::numeric_limits<T>::max(), field, n,
                         error))
            return false;
        out = static_cast<T>(n);
        return true;
    } else {
        if (v->kind() != kind) {
            error = field + " must be " +
                    (kind == Kind::String   ? "a string"
                     : kind == Kind::Number ? "a number"
                     : kind == Kind::Object ? "an object"
                                            : "an array");
            return false;
        }
        if constexpr (kind == Kind::String)
            out = v->str;
        else if constexpr (kind == Kind::Number)
            out = v->num;
        else if constexpr (kind == Kind::Object)
            out = v;
        else
            out = &v->arr;
        return true;
    }
}

} // namespace rrs::obs::json

#endif // RRS_OBS_JSONLITE_HH
