// Round-trip tests for the shared JSON writers (stats::jsonNumber,
// stats::jsonEscape) through the obs jsonlite parser.

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
    const Value *a = v.find("a");
    const Value *b = v.find("b");
    const Value *c = v.find("c");
    ASSERT_TRUE(a && b && c);
    EXPECT_DOUBLE_EQ(a->num, 1.5);
    ASSERT_EQ(b->arr.size(), 3u);
    EXPECT_DOUBLE_EQ(b->arr[2].num, 3.0);
    ASSERT_TRUE(c->find("d") && c->find("e") && c->find("f"));
    EXPECT_EQ(c->find("d")->str, "x\ny");
    EXPECT_TRUE(c->find("e")->boolean);
    EXPECT_TRUE(c->find("f")->isNull());
    EXPECT_EQ(v.find("g"), nullptr);
    EXPECT_EQ(a->find("a"), nullptr);   // not an object
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

TEST(StatsJson, FullPrecisionAndNonFinite)
{
    Value v;
    ASSERT_TRUE(obs::json::parse(
        "{\"pi\": " + stats::jsonNumber(3.14159265358979312) +
            ", \"inf\": " +
            stats::jsonNumber(std::numeric_limits<double>::infinity()) +
            "}",
        v));

    // %.17g round-trips doubles exactly.
    ASSERT_TRUE(v.find("pi") && v.find("inf"));
    EXPECT_EQ(v.find("pi")->num, 3.14159265358979312);
    // Non-finite values must emit valid JSON (null), not bare inf/nan
    // tokens.
    EXPECT_TRUE(v.find("inf")->isNull());

    // The number writer every JSON emitter shares (ledger, campaign
    // sidecar, telemetry).
    EXPECT_EQ(stats::jsonNumber(0.1), "0.10000000000000001");
    EXPECT_EQ(stats::jsonNumber(std::nan("")), "null");
    EXPECT_EQ(stats::jsonNumber(-std::numeric_limits<double>::infinity()),
              "null");
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

} // namespace
