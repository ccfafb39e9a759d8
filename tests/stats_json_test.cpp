// Round-trip tests for the machine-readable stats export: build a
// stats tree, dump it with Group::dumpJson, parse it back with the
// obs jsonlite parser, and compare against the in-memory values.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "obs/jsonlite.hh"
#include "stats/stats.hh"

namespace {

using namespace rrs;
using obs::json::Value;

TEST(JsonLite, ParsesScalarsAndStructure)
{
    Value v;
    std::string err;
    ASSERT_TRUE(obs::json::parse(
        R"({"a": 1.5, "b": [1, 2, 3], "c": {"d": "x\ny", "e": true, "f": null}})",
        v, &err))
        << err;
    ASSERT_TRUE(v.isObject());
    EXPECT_DOUBLE_EQ(v.at("a").num, 1.5);
    ASSERT_EQ(v.at("b").arr.size(), 3u);
    EXPECT_DOUBLE_EQ(v.at("b").arr[2].num, 3.0);
    EXPECT_EQ(v.at("c").at("d").str, "x\ny");
    EXPECT_TRUE(v.at("c").at("e").boolean);
    EXPECT_TRUE(v.at("c").at("f").isNull());
}

TEST(JsonLite, RejectsMalformedInput)
{
    Value v;
    std::string err;
    EXPECT_FALSE(obs::json::parse("{\"a\": }", v, &err));
    EXPECT_FALSE(obs::json::parse("[1, 2", v, &err));
    EXPECT_FALSE(obs::json::parse("{\"a\": 1} trailing", v, &err));
    EXPECT_FALSE(obs::json::parse("", v, &err));
}

TEST(StatsJson, GroupRoundTrip)
{
    stats::Group root("root");
    stats::Scalar s(&root, "insts", "committed \"instructions\"");
    stats::Average a(&root, "wall", "wall seconds");
    stats::Distribution d(&root, "ipc", "ipc percent");
    stats::Group child("core", &root);
    stats::Scalar cs(&child, "cycles", "cycles");

    s += 12345.0;
    a.sample(0.5);
    a.sample(1.5);
    d.sample(7);
    d.sample(7);
    d.sample(42);
    cs += 99.0;

    std::ostringstream os;
    root.dumpJson(os);

    Value v;
    std::string err;
    ASSERT_TRUE(obs::json::parse(os.str(), v, &err))
        << err << "\n" << os.str();

    // Scalar: value and the escaped description survive.
    EXPECT_DOUBLE_EQ(v.at("insts").at("value").num, 12345.0);
    EXPECT_EQ(v.at("insts").at("desc").str,
              "committed \"instructions\"");

    // Average: mean/samples/min/max.
    EXPECT_DOUBLE_EQ(v.at("wall").at("mean").num, 1.0);
    EXPECT_DOUBLE_EQ(v.at("wall").at("samples").num, 2.0);
    EXPECT_DOUBLE_EQ(v.at("wall").at("min").num, 0.5);
    EXPECT_DOUBLE_EQ(v.at("wall").at("max").num, 1.5);

    // Distribution: summary plus the per-bucket counts.
    EXPECT_DOUBLE_EQ(v.at("ipc").at("samples").num, 3.0);
    EXPECT_DOUBLE_EQ(v.at("ipc").at("min").num, 7.0);
    EXPECT_DOUBLE_EQ(v.at("ipc").at("max").num, 42.0);
    EXPECT_DOUBLE_EQ(v.at("ipc").at("counts").at("7").num, 2.0);
    EXPECT_DOUBLE_EQ(v.at("ipc").at("counts").at("42").num, 1.0);

    // Child group nests as an object.
    EXPECT_DOUBLE_EQ(v.at("core").at("cycles").at("value").num, 99.0);
}

TEST(StatsJson, FullPrecisionAndNonFinite)
{
    stats::Group root("root");
    stats::Scalar pi(&root, "pi", "full precision");
    stats::Average empty(&root, "empty", "no samples yet");
    pi += 3.14159265358979312;  // closest double to pi

    std::ostringstream os;
    root.dumpJson(os);
    Value v;
    ASSERT_TRUE(obs::json::parse(os.str(), v));

    // %.17g round-trips doubles exactly.
    EXPECT_EQ(v.at("pi").at("value").num, 3.14159265358979312);
    // An empty Average has no min/max; non-finite values must emit
    // valid JSON (null), not bare inf/nan tokens.
    EXPECT_TRUE(v.at("empty").at("min").isNull() ||
                std::isfinite(v.at("empty").at("min").num));

    // The number writer every JSON emitter shares (stats, ledger,
    // campaign sidecar, profiler, telemetry).
    EXPECT_EQ(stats::jsonNumber(0.1), "0.10000000000000001");
    EXPECT_EQ(stats::jsonNumber(std::nan("")), "null");
    EXPECT_EQ(stats::jsonNumber(-std::numeric_limits<double>::infinity()),
              "null");
}

TEST(StatsJson, TextAndJsonCarryTheSameSummary)
{
    // The satellite fix: the text dump of a Distribution reports the
    // same count/min/max/mean the JSON does.
    stats::Group root("root");
    stats::Distribution d(&root, "lat", "latency");
    d.sample(3);
    d.sample(9);
    d.sample(9);

    std::ostringstream text;
    root.dump(text);
    EXPECT_NE(text.str().find("lat::samples 3"), std::string::npos)
        << text.str();
    EXPECT_NE(text.str().find("lat::min 3"), std::string::npos);
    EXPECT_NE(text.str().find("lat::max 9"), std::string::npos);
    EXPECT_NE(text.str().find("lat::mean 7"), std::string::npos);

    std::ostringstream js;
    root.dumpJson(js);
    Value v;
    ASSERT_TRUE(obs::json::parse(js.str(), v));
    EXPECT_DOUBLE_EQ(v.at("lat").at("samples").num, 3.0);
    EXPECT_DOUBLE_EQ(v.at("lat").at("min").num, 3.0);
    EXPECT_DOUBLE_EQ(v.at("lat").at("max").num, 9.0);
}

TEST(JsonEscape, QuotesEveryHostileCharacter)
{
    // The shared escaper behind every JSON export: quotes, backslashes,
    // newlines, tabs and raw control bytes must round-trip through the
    // parser; plain text must stay untouched.
    const std::string hostile =
        "quote\" slash\\ nl\n tab\t cr\r bell\x07 plain";
    const std::string quoted = stats::jsonQuoted(hostile);
    EXPECT_EQ(quoted.front(), '"');
    EXPECT_EQ(quoted.back(), '"');
    EXPECT_EQ(quoted.find('\n'), std::string::npos) << quoted;

    Value v;
    std::string err;
    ASSERT_TRUE(obs::json::parse(quoted, v, &err)) << err;
    EXPECT_EQ(v.str, hostile);

    std::ostringstream os;
    stats::jsonEscape(os, "x\x01y");
    EXPECT_EQ(os.str(), "\"x\\u0001y\"");
}

TEST(StatsSchema, EveryStatSelfDescribes)
{
    stats::Group root("root");
    stats::Scalar insts(&root, "insts", "committed instructions",
                        "insts");
    stats::Average wall(&root, "wall", "run wall clock", "seconds");
    stats::Distribution ipc(&root, "ipcPct", "ipc percent", "percent");
    stats::Group child("core", &root);
    stats::Scalar cycles(&child, "cycles", "cycles simulated", "cycles");
    stats::Scalar bare(&root, "bare", "no unit given");

    EXPECT_EQ(insts.unit(), "insts");
    EXPECT_EQ(bare.unit(), "");
    EXPECT_STREQ(insts.kind(), "counter");
    EXPECT_STREQ(wall.kind(), "gauge");
    EXPECT_STREQ(ipc.kind(), "distribution");

    std::ostringstream os;
    root.dumpSchema(os);
    Value v;
    std::string err;
    ASSERT_TRUE(obs::json::parse(os.str(), v, &err))
        << err << "\n" << os.str();

    // Flat object keyed by dotted path (root group included), values
    // {kind, unit, desc}.
    EXPECT_EQ(v.at("root.insts").at("kind").str, "counter");
    EXPECT_EQ(v.at("root.insts").at("unit").str, "insts");
    EXPECT_EQ(v.at("root.insts").at("desc").str,
              "committed instructions");
    EXPECT_EQ(v.at("root.wall").at("kind").str, "gauge");
    EXPECT_EQ(v.at("root.ipcPct").at("kind").str, "distribution");
    EXPECT_EQ(v.at("root.core.cycles").at("kind").str, "counter");
    EXPECT_EQ(v.at("root.core.cycles").at("unit").str, "cycles");
    EXPECT_EQ(v.at("root.bare").at("unit").str, "");
}

TEST(StatsSchema, HostileNamesStayValidJson)
{
    stats::Group root("root");
    stats::Scalar evil(&root, "name\"with\\quotes",
                       "desc with \"quotes\" and\nnewline", "u\"nit");
    std::ostringstream os;
    root.dumpSchema(os);
    Value v;
    std::string err;
    ASSERT_TRUE(obs::json::parse(os.str(), v, &err))
        << err << "\n" << os.str();
    EXPECT_EQ(v.at("root.name\"with\\quotes").at("desc").str,
              "desc with \"quotes\" and\nnewline");
    EXPECT_EQ(v.at("root.name\"with\\quotes").at("unit").str, "u\"nit");
}

} // namespace
