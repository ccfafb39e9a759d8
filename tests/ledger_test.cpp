// The experiment ledger (harness/ledger.hh): node-key canonical form,
// digest stability, entry JSON round-trip, corruption rejection, the
// content-addressed store, and the two-ledger drift report's gating
// rules (exact nodes on every stored result, sampled nodes on CI
// overlap).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "harness/ledger.hh"
#include "obs/stallcause.hh"

namespace {

using namespace rrs;
using harness::Ledger;
using harness::LedgerDiff;
using harness::LedgerEntry;
using harness::NodeSpec;

NodeSpec
sampleSpec()
{
    NodeSpec s;
    s.workload = "int_sort";
    s.suite = "specint";
    s.sourceHash = 0x1234'5678'9abc'def0ull;
    s.scheme = "reuse";
    s.label = "proposed";
    s.params = {{"predictor_bits", 2.0}, {"table_entries", 512.0}};
    s.regs = 64;
    s.cap = 150'000;
    s.seed = 0xfeed'beef'cafe'f00dull;
    return s;
}

LedgerEntry
sampleEntry()
{
    LedgerEntry e;
    e.spec = sampleSpec();
    harness::Outcome &o = e.outcome;
    o.sim.committedInsts = 150'000;
    o.sim.cycles = 200'000;
    o.stalls.counts[0] = 120'000;
    o.stalls.counts[2] = 50'000;
    o.stalls.counts[6] = 30'000;
    o.allocations = 90'000;
    o.reuses = 12'000;
    o.repairs = 42;
    o.renameStalls = 1'000;
    return e;
}

/** `text` with its one occurrence of `from` replaced by `to`. */
std::string
edited(std::string text, const std::string &from, const std::string &to)
{
    const std::size_t pos = text.find(from);
    EXPECT_NE(pos, std::string::npos) << from;
    if (pos != std::string::npos)
        text.replace(pos, from.size(), to);
    return text;
}

/** One hand edit of a rendered node and the diagnostic it must draw. */
struct Edit
{
    const char *from;
    const char *to;
    const char *field;
};

/** Each edit of `good` alone makes the parser refuse it, naming why. */
void
expectRefused(const std::string &good, const std::vector<Edit> &edits)
{
    for (const Edit &edit : edits) {
        LedgerEntry back;
        std::string error;
        EXPECT_FALSE(harness::parseLedgerEntryJson(
            edited(good, edit.from, edit.to), back, error))
            << edit.to;
        EXPECT_NE(error.find(edit.field), std::string::npos)
            << edit.to << ": " << error;
    }
}

std::string
tempLedgerDir(const std::string &name)
{
    const std::string dir = testing::TempDir() + "/" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

TEST(NodeKey, CanonicalForm)
{
    const std::string key = harness::nodeKey(sampleSpec());
    EXPECT_EQ(key,
              "ledger=1;bench=2;w=int_sort;src=123456789abcdef0;"
              "suite=specint;scheme=reuse;regs=64;cap=150000;"
              "params=predictor_bits:2,table_entries:512;"
              "sampling=0:0:0:256:2;seed=feedbeefcafef00d");
}

TEST(NodeKey, LabelIsNotPartOfTheIdentity)
{
    NodeSpec a = sampleSpec();
    NodeSpec b = sampleSpec();
    b.label = "renamed column";
    EXPECT_EQ(harness::nodeDigest(a), harness::nodeDigest(b));
}

TEST(NodeKey, EveryIdentityFieldChangesTheDigest)
{
    const std::uint64_t base = harness::nodeDigest(sampleSpec());
    auto differs = [&base](NodeSpec s) {
        return harness::nodeDigest(s) != base;
    };
    {
        NodeSpec s = sampleSpec();
        s.workload = "fp_fir";
        EXPECT_TRUE(differs(s)) << "workload";
    }
    {
        NodeSpec s = sampleSpec();
        s.sourceHash ^= 1;   // a one-line kernel edit
        EXPECT_TRUE(differs(s)) << "sourceHash";
    }
    {
        NodeSpec s = sampleSpec();
        s.scheme = "baseline";
        EXPECT_TRUE(differs(s)) << "scheme";
    }
    {
        NodeSpec s = sampleSpec();
        s.params[0].second = 3.0;
        EXPECT_TRUE(differs(s)) << "params";
    }
    {
        NodeSpec s = sampleSpec();
        s.regs = 96;
        EXPECT_TRUE(differs(s)) << "regs";
    }
    {
        NodeSpec s = sampleSpec();
        s.cap = 2'000;
        EXPECT_TRUE(differs(s)) << "cap";
    }
    {
        NodeSpec s = sampleSpec();
        s.sampling.warm = 256;
        s.sampling.detailed = 128;
        s.sampling.period = 512;
        EXPECT_TRUE(differs(s)) << "sampling";
    }
    {
        NodeSpec s = sampleSpec();
        s.seed ^= 1;
        EXPECT_TRUE(differs(s)) << "seed";
    }
}

TEST(NodeKey, DigestHexIsFixedWidth)
{
    EXPECT_EQ(harness::digestHex(0), "0000000000000000");
    EXPECT_EQ(harness::digestHex(0xabcull), "0000000000000abc");
    EXPECT_EQ(harness::digestHex(~0ull), "ffffffffffffffff");
}

TEST(LedgerEntryJson, RoundTrip)
{
    const LedgerEntry e = sampleEntry();
    const std::string text = harness::renderLedgerEntryJson(e);

    LedgerEntry back;
    std::string error;
    ASSERT_TRUE(harness::parseLedgerEntryJson(text, back, error))
        << error;
    EXPECT_EQ(back.spec.workload, e.spec.workload);
    EXPECT_EQ(back.spec.suite, e.spec.suite);
    EXPECT_EQ(back.spec.sourceHash, e.spec.sourceHash);
    EXPECT_EQ(back.spec.scheme, e.spec.scheme);
    EXPECT_EQ(back.spec.label, e.spec.label);
    EXPECT_EQ(back.spec.params, e.spec.params);
    EXPECT_EQ(back.spec.regs, e.spec.regs);
    EXPECT_EQ(back.spec.cap, e.spec.cap);
    EXPECT_EQ(back.spec.seed, e.spec.seed);
    const harness::Outcome &bo = back.outcome, &eo = e.outcome;
    EXPECT_EQ(bo.sim.committedInsts, eo.sim.committedInsts);
    EXPECT_EQ(bo.sim.cycles, eo.sim.cycles);
    for (int c = 0; c < obs::numCycleCauses; ++c)
        EXPECT_EQ(bo.stalls.counts[c], eo.stalls.counts[c]) << c;
    EXPECT_EQ(bo.allocations, eo.allocations);
    EXPECT_EQ(bo.reuses, eo.reuses);
    EXPECT_EQ(bo.repairs, eo.repairs);
    EXPECT_EQ(bo.renameStalls, eo.renameStalls);
    EXPECT_FALSE(bo.sampled.enabled);

    // Rendering the parsed entry reproduces the bytes: the node files
    // are canonical, so ledger diffs can compare bytes.
    EXPECT_EQ(harness::renderLedgerEntryJson(back), text);

    // A sampled node's run row carries its estimate, and every field of
    // it survives the trip.
    LedgerEntry sampled = sampleEntry();
    sampled.spec.sampling.warm = 2048;
    sampled.spec.sampling.detailed = 1024;
    sampled.spec.sampling.period = 8192;
    harness::SampledSummary &sm = sampled.outcome.sampled;
    sm.enabled = true;
    sm.windows = 16;
    sm.meanIpc = 0.83;
    sm.stddevIpc = 0.0428;
    sm.ci95Ipc = 0.021;
    sm.medianIpc = 0.825;
    sm.detailedInsts = 16'384;
    sm.detailedCycles = 19'740;
    sm.warmInsts = 32'768;
    sm.skippedInsts = 98'304;
    const std::string sampledText = harness::renderLedgerEntryJson(sampled);
    ASSERT_TRUE(harness::parseLedgerEntryJson(sampledText, back, error))
        << error;
    const harness::SampledSummary &bs = back.outcome.sampled;
    ASSERT_TRUE(bs.enabled);
    EXPECT_EQ(bs.windows, sm.windows);
    EXPECT_EQ(bs.meanIpc, sm.meanIpc);
    EXPECT_EQ(bs.stddevIpc, sm.stddevIpc);
    EXPECT_EQ(bs.ci95Ipc, sm.ci95Ipc);
    EXPECT_EQ(bs.medianIpc, sm.medianIpc);
    EXPECT_EQ(bs.detailedInsts, sm.detailedInsts);
    EXPECT_EQ(bs.detailedCycles, sm.detailedCycles);
    EXPECT_EQ(bs.warmInsts, sm.warmInsts);
    EXPECT_EQ(bs.skippedInsts, sm.skippedInsts);
    EXPECT_EQ(harness::renderLedgerEntryJson(back), sampledText);
}

TEST(LedgerEntryJson, WallClockIsNeverStored)
{
    // Entries must be byte-stable across machines: the run row's wall
    // clock is always written as zero, and a node that claims host time
    // is refused.
    const std::string text = harness::renderLedgerEntryJson(sampleEntry());
    EXPECT_NE(text.find("\"wall_seconds\": 0}"), std::string::npos);
    EXPECT_EQ(text.find("git_sha"), std::string::npos);
    EXPECT_EQ(text.find("timestamp"), std::string::npos);

    expectRefused(text, {{"\"wall_seconds\": 0", "\"wall_seconds\": 1.5",
                           "'wall_seconds' must be 0"}});
}

TEST(LedgerEntryJson, RejectsDigestMismatch)
{
    // A hand-edited identity field no longer matches the stored
    // digest; trusting the entry would poison every figure above it.
    std::string text = harness::renderLedgerEntryJson(sampleEntry());
    const std::size_t pos = text.find("\"regs\": 64");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, 10, "\"regs\": 65");

    LedgerEntry back;
    std::string error;
    EXPECT_FALSE(harness::parseLedgerEntryJson(text, back, error));
    EXPECT_NE(error.find("digest"), std::string::npos) << error;
}

TEST(LedgerEntryJson, RefusesFieldsNotReadAsWritten)
{
    // The digest covers only the spec, so the result fields are guarded
    // by the reader alone: a count must be a whole number in its type's
    // range, a float a JSON number, a string a JSON string.
    expectRefused(harness::renderLedgerEntryJson(sampleEntry()), {
        {"\"cycles\": 200000", "\"cycles\": 200000.5", "'cycles'"},
        {"\"renameNoReg\": 50000", "\"renameNoReg\": -5",
         "'renameNoReg'"},
        {"\"commit\": 120000", "\"commit\": 1e30", "'commit'"},
        // Truncation would give back the digested 64, so only the
        // reader can refuse it.
        {"\"regs\": 64", "\"regs\": 64.7", "'regs'"},
        {"\"regs\": 64", "\"regs\": 4294967296", "'regs'"},
        {"\"repairs\": 42", "\"repairs\": 42.5", "'repairs'"},
        {"\"insts\": 150000", "\"insts\": \"150000\"", "'insts'"},
        {"\"wall_seconds\": 0", "\"wall_seconds\": \"0\"",
         "'wall_seconds' must be a number"},
        {"\"label\": \"proposed\"", "\"label\": 7",
         "'label' must be a string"},
        {"\"stalls\": {", "\"stalls\": 5, \"unused\": {",
         "'stalls' must be an object"},
    });
}

TEST(LedgerEntryJson, RequiresEveryWrittenFieldAndARun)
{
    // Every field the writer emits is required, the run row has no
    // second copy of the node's identity to disagree with, and a node
    // with no committed instruction or no cycle has no IPC: reading any
    // of these used to yield zeros, and a zero-cycle node aborted
    // rrs-report in its geomean.
    expectRefused(harness::renderLedgerEntryJson(sampleEntry()), {
        {"\"cycles\": 200000, ", "", "'cycles' is missing"},
        {"\"cycles\": 200000", "\"cycles\": 0",
         "'cycles' must be positive"},
        {"\"insts\": 150000", "\"insts\": 0", "'insts' must be positive"},
        {", \"rename_stalls\": 1000", "", "'rename_stalls' is missing"},
        {", \"backendExec\": 0", "", "'backendExec' is missing"},
        {"\"key\": ", "\"unused\": ", "'key' is missing"},
        {"\"key\": \"ledger=1;", "\"key\": \"ledger=9;",
         "digest or key does not match"},
        {"\"label\": \"proposed\",\n", "", "'label' is missing"},
        {"\"ipc\": 0.75", "\"ipc\": 0.5", "'ipc' is not insts / cycles"},
        {"{\"workload\": \"int_sort\", \"scheme\": \"reuse\", \"insts",
         "{\"workload\": \"fp_fir\", \"scheme\": \"reuse\", \"insts",
         "run row's workload or scheme disagrees"},
        {"\"scheme\": \"reuse\", \"insts",
         "\"scheme\": \"baseline\", \"insts",
         "run row's workload or scheme disagrees"},
        {"\"wall_seconds\": 0}",
         "\"wall_seconds\": 0, \"sampled\": {\"windows\": 1}}",
         "an exact node's run row carries 'sampled'"},
    });

    // A sampled node must carry its estimate.
    LedgerEntry sampled = sampleEntry();
    sampled.spec.sampling.warm = 256;
    sampled.spec.sampling.detailed = 128;
    sampled.spec.sampling.period = 512;
    const std::string text = harness::renderLedgerEntryJson(sampled);
    const std::size_t at = text.find(", \"sampled\": {");
    ASSERT_NE(at, std::string::npos) << text;
    const std::string block = text.substr(at, text.find('}', at) + 1 - at);
    expectRefused(text, {{block.c_str(), "", "'sampled' is missing"}});
}

TEST(LedgerEntryJson, SnapshotNodesRenderBackToTheirBytes)
{
    // The committed snapshot's nodes lock the node format without a
    // simulation: each parses, and rendering the parsed entry gives
    // back the file byte for byte.
    const Ledger snapshot(RRS_LEDGER_SNAPSHOT);
    const std::vector<std::string> nodes = snapshot.listNodes();
    EXPECT_EQ(nodes.size(), 636u);
    for (const std::string &hex : nodes) {
        std::ifstream in(snapshot.nodePath(hex), std::ios::binary);
        std::ostringstream text;
        text << in.rdbuf();
        LedgerEntry e;
        std::string error;
        ASSERT_TRUE(harness::parseLedgerEntryJson(text.str(), e, error))
            << hex << ": " << error;
        EXPECT_EQ(harness::renderLedgerEntryJson(e), text.str()) << hex;
    }
}

TEST(LedgerEntryJson, RejectsGarbage)
{
    LedgerEntry back;
    std::string error;
    EXPECT_FALSE(harness::parseLedgerEntryJson("{", back, error));
    EXPECT_FALSE(harness::parseLedgerEntryJson("{}", back, error));
    EXPECT_FALSE(harness::parseLedgerEntryJson(
        "{\"ledger_schema\": 999}", back, error));
}

TEST(LedgerStore, StoreLoadList)
{
    const Ledger ledger(tempLedgerDir("ledger_store"));
    const LedgerEntry e = sampleEntry();
    const std::string hex =
        harness::digestHex(harness::nodeDigest(e.spec));

    EXPECT_FALSE(ledger.has(hex));
    std::string error;
    ASSERT_TRUE(ledger.store(hex, e, error)) << error;
    EXPECT_TRUE(ledger.has(hex));

    LedgerEntry back;
    ASSERT_TRUE(ledger.tryLoad(hex, back, error)) << error;
    EXPECT_EQ(back.outcome.sim.cycles, e.outcome.sim.cycles);

    // A second, different node; listNodes returns both, sorted.
    LedgerEntry e2 = sampleEntry();
    e2.spec.regs = 96;
    const std::string hex2 =
        harness::digestHex(harness::nodeDigest(e2.spec));
    ASSERT_TRUE(ledger.store(hex2, e2, error)) << error;
    std::vector<std::string> nodes = ledger.listNodes();
    ASSERT_EQ(nodes.size(), 2u);
    EXPECT_LT(nodes[0], nodes[1]);

    EXPECT_FALSE(ledger.tryLoad("0000000000000000", back, error));
}

TEST(LedgerDiffTest, ExactNodesGateBitForBit)
{
    const Ledger base(tempLedgerDir("diff_base"));
    const Ledger cur(tempLedgerDir("diff_cur"));
    const LedgerEntry e = sampleEntry();
    const std::string hex =
        harness::digestHex(harness::nodeDigest(e.spec));
    std::string error;
    ASSERT_TRUE(base.store(hex, e, error)) << error;
    ASSERT_TRUE(cur.store(hex, e, error)) << error;
    EXPECT_TRUE(harness::diffLedgers(base, cur).clean());

    // One cycle of drift in an exact node fails the gate, and the
    // stall row names where the cycles went.
    LedgerEntry drifted = e;
    drifted.outcome.sim.cycles += 1;
    drifted.outcome.stalls.counts[2] += 1;
    ASSERT_TRUE(cur.store(hex, drifted, error)) << error;
    const LedgerDiff d = harness::diffLedgers(base, cur);
    ASSERT_FALSE(d.clean());
    bool sawCycles = false, sawStall = false;
    for (const auto &row : d.drift) {
        sawCycles = sawCycles || row.metric == "cycles";
        sawStall = sawStall || row.metric.rfind("stall.", 0) == 0;
    }
    EXPECT_TRUE(sawCycles);
    EXPECT_TRUE(sawStall);
}

TEST(LedgerDiffTest, EveryStoredFieldGates)
{
    // Each stored result of an exact node, changed alone, is named as
    // drift: none may pass as "no drift".
    const Ledger base(tempLedgerDir("diff_fields_base"));
    const Ledger cur(tempLedgerDir("diff_fields_cur"));
    const LedgerEntry e = sampleEntry();
    const std::string hex =
        harness::digestHex(harness::nodeDigest(e.spec));
    std::string error;
    ASSERT_TRUE(base.store(hex, e, error)) << error;

    std::vector<std::pair<std::string, LedgerEntry>> cases;
    auto change = [&cases, &e](const std::string &metric, auto edit) {
        LedgerEntry c = e;
        edit(c);
        cases.emplace_back(metric, c);
    };
    change("insts", [](LedgerEntry &c) { c.outcome.sim.committedInsts += 1; });
    change("cycles", [](LedgerEntry &c) { c.outcome.sim.cycles += 1; });
    for (int i = 0; i < obs::numCycleCauses; ++i) {
        change(std::string("stall.") +
                   obs::cycleCauseName(static_cast<obs::CycleCause>(i)),
               [i](LedgerEntry &c) { c.outcome.stalls.counts[i] += 1; });
    }
    change("allocations", [](LedgerEntry &c) { c.outcome.allocations += 1; });
    change("reuses", [](LedgerEntry &c) { c.outcome.reuses += 1; });
    change("repairs", [](LedgerEntry &c) { c.outcome.repairs += 1; });
    change("rename_stalls",
           [](LedgerEntry &c) { c.outcome.renameStalls += 1; });

    for (const auto &[metric, changed] : cases) {
        ASSERT_TRUE(cur.store(hex, changed, error)) << error;
        const LedgerDiff d = harness::diffLedgers(base, cur);
        ASSERT_EQ(d.drift.size(), 1u) << metric;
        EXPECT_EQ(d.drift[0].metric, metric);
    }
}

TEST(LedgerDiffTest, SampledNodesGateOnCiOverlap)
{
    const Ledger base(tempLedgerDir("diff_sampled_base"));
    const Ledger cur(tempLedgerDir("diff_sampled_cur"));
    LedgerEntry e = sampleEntry();
    e.spec.sampling.warm = 256;
    e.spec.sampling.detailed = 128;
    e.spec.sampling.period = 512;
    e.outcome.sampled.enabled = true;
    e.outcome.sampled.windows = 16;
    e.outcome.sampled.meanIpc = 0.80;
    e.outcome.sampled.ci95Ipc = 0.05;
    const std::string hex =
        harness::digestHex(harness::nodeDigest(e.spec));
    std::string error;
    ASSERT_TRUE(base.store(hex, e, error)) << error;

    // Within the summed CI: noise, not drift.
    LedgerEntry within = e;
    within.outcome.sampled.meanIpc = 0.86;
    ASSERT_TRUE(cur.store(hex, within, error)) << error;
    EXPECT_TRUE(harness::diffLedgers(base, cur).clean());

    // Beyond it: drift on the mean-IPC metric.
    LedgerEntry far = e;
    far.outcome.sampled.meanIpc = 1.00;
    ASSERT_TRUE(cur.store(hex, far, error)) << error;
    const LedgerDiff d = harness::diffLedgers(base, cur);
    ASSERT_EQ(d.drift.size(), 1u);
    EXPECT_EQ(d.drift[0].metric, "mean_ipc");
}

TEST(LedgerDiffTest, NodeSetDifferenceIsReported)
{
    const Ledger base(tempLedgerDir("diff_sets_base"));
    const Ledger cur(tempLedgerDir("diff_sets_cur"));
    const LedgerEntry e = sampleEntry();
    LedgerEntry e2 = sampleEntry();
    e2.spec.regs = 96;
    std::string error;
    ASSERT_TRUE(base.store(
        harness::digestHex(harness::nodeDigest(e.spec)), e, error));
    ASSERT_TRUE(cur.store(
        harness::digestHex(harness::nodeDigest(e2.spec)), e2, error));
    const LedgerDiff d = harness::diffLedgers(base, cur);
    EXPECT_EQ(d.onlyBase.size(), 1u);
    EXPECT_EQ(d.onlyCur.size(), 1u);
    EXPECT_FALSE(d.clean());
}

} // namespace
