#include "logging.hh"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <utility>
#include <vector>

namespace rrs {

namespace {

/**
 * Crash-hook registry.  Guarded by its own mutex (not the log sink's)
 * so hooks can log while they dump.  runCrashHooks() fires each hook
 * at most once per process: the first panic/fatal drains the list, a
 * second crash (including one raised from inside a hook) finds it
 * empty and falls straight through to abort()/exit().
 */
struct CrashHooks
{
    std::mutex mtx;
    std::vector<std::pair<std::uint64_t, std::function<void()>>> hooks;
    std::uint64_t nextId = 1;
};

CrashHooks &
crashHooks()
{
    static CrashHooks *h = new CrashHooks;  // leaked: usable at exit
    return *h;
}

void
runCrashHooks()
{
    std::vector<std::pair<std::uint64_t, std::function<void()>>> toRun;
    {
        std::lock_guard<std::mutex> lock(crashHooks().mtx);
        toRun.swap(crashHooks().hooks);
    }
    for (auto &[id, hook] : toRun)
        if (hook)
            hook();
}

/**
 * One mutex-guarded sink for every log line.  warn() is
 * called from sweep worker threads (a model warning fires in
 * several parallel runs at once); writing each message with a single
 * locked fputs keeps lines whole instead of interleaving mid-line.
 * panic()/fatal() also serialise here so their last words are not
 * torn by concurrent warnings.
 */
std::mutex &
sinkMutex()
{
    static std::mutex m;
    return m;
}

void
logLine(std::FILE *to, const char *prefix, const std::string &msg,
        const std::string &suffix = "")
{
    std::string line;
    line.reserve(msg.size() + suffix.size() + 16);
    line += prefix;
    line += msg;
    line += suffix;
    line += "\n";
    std::lock_guard<std::mutex> lock(sinkMutex());
    std::fputs(line.c_str(), to);
    std::fflush(to);
}

} // namespace

std::uint64_t
addCrashHook(std::function<void()> hook)
{
    std::lock_guard<std::mutex> lock(crashHooks().mtx);
    const std::uint64_t id = crashHooks().nextId++;
    crashHooks().hooks.emplace_back(id, std::move(hook));
    return id;
}

void
removeCrashHook(std::uint64_t id)
{
    std::lock_guard<std::mutex> lock(crashHooks().mtx);
    auto &hooks = crashHooks().hooks;
    for (auto it = hooks.begin(); it != hooks.end(); ++it) {
        if (it->first == id) {
            hooks.erase(it);
            return;
        }
    }
}

std::string
vformatString(const char *fmt, va_list args)
{
    va_list copy;
    va_copy(copy, args);
    int needed = std::vsnprintf(nullptr, 0, fmt, copy);
    va_end(copy);
    if (needed < 0)
        return "<format error>";
    std::vector<char> buf(static_cast<size_t>(needed) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args);
    return std::string(buf.data(), static_cast<size_t>(needed));
}

std::string
formatString(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string s = vformatString(fmt, args);
    va_end(args);
    return s;
}

void
panicImpl(const char *file, int line, const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string msg = vformatString(fmt, args);
    va_end(args);
    logLine(stderr, "panic: ", msg,
            formatString(" (%s:%d)", file, line));
    runCrashHooks();
    std::abort();
}

void
fatalImpl(const char *file, int line, const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string msg = vformatString(fmt, args);
    va_end(args);
    logLine(stderr, "fatal: ", msg,
            formatString(" (%s:%d)", file, line));
    runCrashHooks();
    std::exit(1);
}

void
warnImpl(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string msg = vformatString(fmt, args);
    va_end(args);
    logLine(stderr, "warn: ", msg);
}

} // namespace rrs
