#include "profiler.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/logging.hh"
#include "stats/stats.hh"

namespace rrs::obs {

namespace detail {

bool profilerEnabled = [] {
    const char *env = std::getenv("RRS_PROF");
    return env != nullptr && std::strcmp(env, "0") != 0 &&
           std::strcmp(env, "") != 0;
}();

} // namespace detail

namespace {

/**
 * Per-thread tree handle: registers with the profiler on the thread's
 * first profiled phase, merges its data into the retired pile when the
 * thread exits.  The profiler singleton is deliberately leaked so
 * these destructors (which run during static teardown on pool-thread
 * join) never touch a destroyed object.
 */
struct ThreadTreeHandle
{
    PhaseTree tree;
    ThreadTreeHandle() { Profiler::instance().registerThreadTree(&tree); }
    ~ThreadTreeHandle() { Profiler::instance().unregisterThreadTree(&tree); }
};

thread_local PhaseTree *tlBound = nullptr;

PhaseTree &
threadLocalTree()
{
    thread_local ThreadTreeHandle handle;
    return handle.tree;
}

void
printNode(std::ostream &os, const PhaseNode &node, int depth,
          double parentSeconds)
{
    char buf[192];
    const double pct = parentSeconds > 0
                           ? 100.0 * node.seconds / parentSeconds
                           : 0.0;
    std::snprintf(buf, sizeof(buf), "  %*s%-*s %10llu x %10.3f s %5.1f%%\n",
                  depth * 2, "",
                  std::max(2, 24 - depth * 2), node.name.c_str(),
                  static_cast<unsigned long long>(node.count),
                  node.seconds, pct);
    os << buf;
    for (const auto &c : node.children)
        printNode(os, *c, depth + 1, node.seconds);
}

} // namespace

PhaseNode *
PhaseNode::child(std::string_view childName)
{
    for (const auto &c : children) {
        if (c->name == childName)
            return c.get();
    }
    children.push_back(std::make_unique<PhaseNode>());
    children.back()->name = std::string(childName);
    return children.back().get();
}

const PhaseNode *
PhaseNode::find(std::string_view childName) const
{
    for (const auto &c : children) {
        if (c->name == childName)
            return c.get();
    }
    return nullptr;
}

double
PhaseNode::childSeconds() const
{
    double s = 0;
    for (const auto &c : children)
        s += c->seconds;
    return s;
}

void
PhaseNode::merge(const PhaseNode &other)
{
    count += other.count;
    seconds += other.seconds;
    for (const auto &c : other.children)
        child(c->name)->merge(*c);
}

void
PhaseNode::clear()
{
    count = 0;
    seconds = 0;
    children.clear();
}

PhaseNode *
PhaseTree::enter(std::string_view name)
{
    PhaseNode *parent = stack.empty() ? &rootNode : stack.back();
    PhaseNode *node = parent->child(name);
    stack.push_back(node);
    return node;
}

void
PhaseTree::leave(double seconds)
{
    rrs_assert(!stack.empty(), "phase leave without matching enter");
    PhaseNode *node = stack.back();
    stack.pop_back();
    ++node->count;
    node->seconds += seconds;
}

void
PhaseTree::clear()
{
    rrs_assert(stack.empty(), "clearing a phase tree mid-phase");
    rootNode.clear();
}

void
Profiler::setEnabled(bool on)
{
    detail::profilerEnabled = on;
}

Profiler::Profiler()
{
    runMerged.name = "run";
}

Profiler &
Profiler::instance()
{
    // Leaked on purpose: see ThreadTreeHandle.
    static Profiler *inst = new Profiler();
    return *inst;
}

Profiler::Bind::Bind(PhaseTree *tree)
    : prev(nullptr), bound(tree != nullptr)
{
    if (bound) {
        prev = tlBound;
        tlBound = tree;
    }
}

Profiler::Bind::~Bind()
{
    if (bound)
        tlBound = prev;
}

PhaseTree &
Profiler::currentTree()
{
    if (tlBound)
        return *tlBound;
    return threadLocalTree();
}

void
Profiler::registerThreadTree(PhaseTree *tree)
{
    std::lock_guard<std::mutex> lock(mu);
    threadTrees.push_back(tree);
}

void
Profiler::unregisterThreadTree(PhaseTree *tree)
{
    std::lock_guard<std::mutex> lock(mu);
    retired.merge(tree->root());
    threadTrees.erase(
        std::remove(threadTrees.begin(), threadTrees.end(), tree),
        threadTrees.end());
}

void
Profiler::collectRunAggregates(const PhaseNode &node,
                               const std::string &prefix)
{
    for (const auto &c : node.children) {
        const std::string path =
            prefix.empty() ? c->name : prefix + "/" + c->name;
        RunPhaseAgg &agg = runAgg[path];
        agg.count += c->count;
        agg.seconds += c->seconds;
        agg.perRunUs.push_back(
            static_cast<std::uint64_t>(std::llround(c->seconds * 1e6)));
        collectRunAggregates(*c, path);
    }
}

void
Profiler::addRunTree(const PhaseTree &tree)
{
    // Post-join, one caller thread: the lock only guards against a
    // concurrent report() from another control thread.
    std::lock_guard<std::mutex> lock(mu);
    runMerged.merge(tree.root());
    ++runCount;
    collectRunAggregates(tree.root(), "");
}

double
Profiler::runPercentileUs(const std::string &path, double p) const
{
    std::lock_guard<std::mutex> lock(mu);
    auto it = runAgg.find(path);
    if (it == runAgg.end())
        return 0.0;
    return stats::percentile(it->second.perRunUs, p);
}

PhaseNode
Profiler::hostTree() const
{
    std::lock_guard<std::mutex> lock(mu);
    PhaseNode out;
    out.name = "host";
    out.merge(retired);
    for (const PhaseTree *t : threadTrees)
        out.merge(t->root());
    return out;
}

void
Profiler::report(std::ostream &os) const
{
    const PhaseNode host = hostTree();
    os << "phase profile (host wall clock, RRS_PROF):\n";
    if (host.children.empty()) {
        os << "  (no host phases recorded)\n";
    } else {
        const double total = host.childSeconds();
        for (const auto &c : host.children)
            printNode(os, *c, 0, total);
    }

    std::lock_guard<std::mutex> lock(mu);
    if (runCount == 0)
        return;
    char buf[224];
    std::snprintf(buf, sizeof(buf),
                  "per-run phase latencies (%llu run trees merged "
                  "post-join; deterministic across RRS_THREADS):\n"
                  "  %-24s %10s %10s %10s %10s %10s\n",
                  static_cast<unsigned long long>(runCount), "phase",
                  "count", "total_s", "p50_us", "p95_us", "max_us");
    os << buf;
    for (const auto &[path, agg] : runAgg) {
        std::snprintf(buf, sizeof(buf),
                      "  %-24s %10llu %10.3f %10.0f %10.0f %10.0f\n",
                      path.c_str(),
                      static_cast<unsigned long long>(agg.count),
                      agg.seconds, stats::percentile(agg.perRunUs, 50),
                      stats::percentile(agg.perRunUs, 95),
                      stats::percentile(agg.perRunUs, 100));
        os << buf;
    }
}

void
Profiler::reset()
{
    std::lock_guard<std::mutex> lock(mu);
    retired.clear();
    for (PhaseTree *t : threadTrees)
        t->clear();
    runMerged.clear();
    runMerged.name = "run";
    runCount = 0;
    runAgg.clear();
}

void
ScopedPhase::begin(const char *name)
{
    tree = &Profiler::currentTree();
    tree->enter(name);
    t0 = std::chrono::steady_clock::now();
}

void
ScopedPhase::end()
{
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    tree->leave(dt.count());
}

} // namespace rrs::obs
