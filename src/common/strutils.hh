/**
 * @file
 * String helpers used by the assembler, config handling and reporters:
 * trimming, splitting, case folding and numeric parsing with error
 * reporting.
 */

#ifndef RRS_COMMON_STRUTILS_HH
#define RRS_COMMON_STRUTILS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace rrs {

/** Strip leading and trailing whitespace. */
std::string_view trim(std::string_view s);

/** Split on a delimiter character; empty fields are kept. */
std::vector<std::string_view> split(std::string_view s, char delim);

/** Lower-case an ASCII string. */
std::string toLower(std::string_view s);

/**
 * Parse a signed integer; accepts decimal, 0x-hex and a leading '-'
 * or '#' (ARM-style immediate marker).  Returns nullopt on garbage.
 */
std::optional<std::int64_t> parseInt(std::string_view s);

/**
 * Parse a double.  Returns nullopt on garbage.  Locale-independent:
 * the decimal separator is always '.', whatever the global locale says
 * (std::strtod would honour a comma-decimal locale and misparse every
 * float in ledger nodes and sweep matrices).
 */
std::optional<double> parseDouble(std::string_view s);

/**
 * Locale-independent strtod-style prefix parse: reads the longest
 * valid floating-point number starting at `first` (JSON/C grammar,
 * '.' decimal separator regardless of the global locale) into `out`.
 * @return pointer one past the parsed text, or `first` when no number
 *         starts there.
 */
const char *parseDoublePrefix(const char *first, const char *last,
                              double &out);

/**
 * The on/off grammar of a switch variable (`RRS_PROF`, `RRS_PROGRESS`):
 * unset, empty or `0` is off and `1` is on.  Any other value is an
 * rrs_fatal naming the variable and the value, so call it during
 * static initialisation, before any sweep lane starts.
 */
bool envFlag(const char *name);

/**
 * A count variable (`RRS_THREADS`, `RRS_AUDIT`): unset or empty is
 * nullopt, else an rrs::parseInt integer from `min` (0 or 1) to `max`.
 * Anything else is an rrs_fatal naming the variable and the range, so
 * read it on the main thread.
 */
std::optional<std::int64_t> envCount(const char *name, std::int64_t min,
                                     std::int64_t max);

} // namespace rrs

#endif // RRS_COMMON_STRUTILS_HH
