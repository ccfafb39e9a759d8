// Locale-independence tests for every numeric parse path: parseDouble
// / parseDoublePrefix (common/strutils.hh) and the jsonlite number
// grammar (obs/jsonlite.hh) must read "3.14" as 3.14 no matter what
// locale the host process is in.  Both paths used to sit on
// std::strtod, which honours the global C locale: under a
// comma-decimal locale (de_DE style) "5.72" parsed as 5 and every
// ledger / sweep-matrix number silently truncated.
//
// The container may not ship any comma-decimal OS locale, so the C
// half of the setup is best-effort: the C++ half (a custom numpunct
// facet installed as the global std::locale) needs no OS support and
// always runs.

#include <gtest/gtest.h>

#include <clocale>
#include <locale>
#include <string>

#include "common/strutils.hh"
#include "obs/jsonlite.hh"

namespace {

using namespace rrs;

/** A numpunct facet that renders/reads decimals German-style. */
class CommaNumpunct : public std::numpunct<char>
{
  protected:
    char do_decimal_point() const override { return ','; }
    char do_thousands_sep() const override { return '.'; }
    std::string do_grouping() const override { return "\3"; }
};

/**
 * Push the process into a comma-decimal world for one test: the global
 * std::locale always (custom facet), the C locale when the host has a
 * comma-decimal one installed.  Restores both on destruction.
 */
class CommaLocaleGuard
{
  public:
    CommaLocaleGuard()
        : oldCpp(std::locale::global(
              std::locale(std::locale::classic(), new CommaNumpunct)))
    {
        const char *old = std::setlocale(LC_NUMERIC, nullptr);
        oldC = old ? old : "C";
        for (const char *cand :
             {"de_DE.UTF-8", "de_DE.utf8", "de_DE", "fr_FR.UTF-8",
              "fr_FR.utf8", "fr_FR"}) {
            if (std::setlocale(LC_NUMERIC, cand) != nullptr) {
                cLocaleSet = true;
                break;
            }
        }
    }

    ~CommaLocaleGuard()
    {
        std::setlocale(LC_NUMERIC, oldC.c_str());
        std::locale::global(oldCpp);
    }

    /** Did a real comma-decimal C locale take effect too? */
    bool hasCLocale() const { return cLocaleSet; }

  private:
    std::locale oldCpp;
    std::string oldC;
    bool cLocaleSet = false;
};

TEST(LocaleRoundTrip, ParseDoubleIgnoresGlobalLocale)
{
    CommaLocaleGuard guard;

    EXPECT_EQ(parseDouble("3.14"), 3.14);
    EXPECT_EQ(parseDouble("5.7209999"), 5.7209999);
    EXPECT_EQ(parseDouble("5.72e-06"), 5.72e-06);
    EXPECT_EQ(parseDouble("-0.5"), -0.5);
    EXPECT_EQ(parseDouble("+2.5"), 2.5);
    EXPECT_EQ(parseDouble("1e3"), 1000.0);
    // Comma is NOT a decimal separator in any config file we read.
    EXPECT_EQ(parseDouble("3,14"), std::nullopt);
    EXPECT_EQ(parseDouble("abc"), std::nullopt);
}

TEST(LocaleRoundTrip, ParseDoublePrefixIgnoresGlobalLocale)
{
    CommaLocaleGuard guard;

    const std::string in = "6.125e-2]";
    double v = 0;
    const char *end =
        parseDoublePrefix(in.data(), in.data() + in.size(), v);
    EXPECT_EQ(end, in.data() + 8);
    EXPECT_EQ(v, 6.125e-2);

    // A non-number consumes nothing.
    const std::string bad = ",5";
    EXPECT_EQ(parseDoublePrefix(bad.data(), bad.data() + bad.size(), v),
              bad.data());
}

TEST(LocaleRoundTrip, JsonNumbersSurviveCommaLocale)
{
    CommaLocaleGuard guard;

    obs::json::Value doc;
    std::string error;
    ASSERT_TRUE(obs::json::parse(
        R"({"ipc": 5.72e-06, "wall": 0.45, "n": 175000})", doc, &error))
        << error;
    ASSERT_NE(doc.find("ipc"), nullptr);
    EXPECT_EQ(doc.find("ipc")->num, 5.72e-06);
    EXPECT_EQ(doc.find("wall")->num, 0.45);
    EXPECT_EQ(doc.find("n")->num, 175000.0);
}

// The full write-then-read loop: values rendered with %.17g must parse
// back bit-exact even when the process locale would rather see commas.
TEST(LocaleRoundTrip, RenderedDoublesRoundTripBitExact)
{
    CommaLocaleGuard guard;

    for (double v : {5.7209999, 5.72e-06, 0.3333333333333333,
                     1.0 / 175000.0, 123456.789}) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        // snprintf itself must not have localised the decimal point
        // for the artifact files to stay machine-readable; %g is only
        // locale-sensitive through LC_NUMERIC, which the C++-side
        // facet does not touch.
        if (guard.hasCLocale() && std::string(buf).find(',') !=
                                      std::string::npos)
            GTEST_SKIP() << "host printf localises %g; parse paths are "
                            "covered by the literal-input tests";
        auto parsed = parseDouble(buf);
        ASSERT_TRUE(parsed.has_value()) << buf;
        EXPECT_EQ(*parsed, v) << buf;
    }
}

} // namespace
