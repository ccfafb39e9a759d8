/**
 * @file
 * Error and status reporting, following the gem5 convention:
 *
 *  - panic():  an internal simulator invariant was violated (a bug in
 *              rrsim itself).  Aborts so a debugger / core dump can
 *              capture the state.
 *  - fatal():  the simulation cannot continue because of a user error
 *              (bad configuration, malformed workload).  Exits cleanly
 *              with a non-zero status.
 *  - warn():   something is suspicious but the run can continue.
 *
 * All of them accept printf-style formatting.  Every message goes
 * through one mutex-guarded sink, so lines stay whole when sweep
 * worker threads log concurrently.
 */

#ifndef RRS_COMMON_LOGGING_HH
#define RRS_COMMON_LOGGING_HH

#include <cstdarg>
#include <cstdint>
#include <functional>
#include <string>

namespace rrs {

/**
 * Register a hook that panic()/fatal() run after printing their last
 * words and before abort()/exit().  The flight recorder uses this to
 * dump its ring buffer next to the crash message, turning a one-line
 * invariant violation into a forensic report.
 *
 * Hooks run at most once per process (the first crash wins; a crash
 * from inside a hook does not recurse), in registration order, with
 * the log-sink mutex *not* held so they may log.  Returns an id for
 * removeCrashHook().
 *
 * Thread safety: registration and the crash path share one mutex.
 * Hooks must be safe to run from whatever thread crashes.
 */
std::uint64_t addCrashHook(std::function<void()> hook);

/** Unregister a hook (e.g. when its flight recorder dies first). */
void removeCrashHook(std::uint64_t id);

[[noreturn]] void panicImpl(const char *file, int line, const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));

[[noreturn]] void fatalImpl(const char *file, int line, const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));

void warnImpl(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Format a printf-style message into a std::string. */
std::string vformatString(const char *fmt, va_list args);

/** Format a printf-style message into a std::string. */
std::string formatString(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace rrs

#define rrs_panic(...) ::rrs::panicImpl(__FILE__, __LINE__, __VA_ARGS__)
#define rrs_fatal(...) ::rrs::fatalImpl(__FILE__, __LINE__, __VA_ARGS__)
#define rrs_warn(...) ::rrs::warnImpl(__VA_ARGS__)

/**
 * Invariant check that stays on in release builds.  Use for simulator
 * invariants whose violation means a bug in rrsim.
 */
#define rrs_assert(cond, ...)                                               \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::rrs::panicImpl(__FILE__, __LINE__,                            \
                             "assertion failed: %s", #cond);                \
        }                                                                   \
    } while (0)

#endif // RRS_COMMON_LOGGING_HH
