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
 */

#ifndef RRS_OBS_JSONLITE_HH
#define RRS_OBS_JSONLITE_HH

#include <map>
#include <memory>
#include <string>
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

} // namespace rrs::obs::json

#endif // RRS_OBS_JSONLITE_HH
