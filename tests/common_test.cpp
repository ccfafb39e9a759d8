// Unit tests for the common utilities: bit manipulation, deterministic
// RNG and string helpers.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "common/atomicfile.hh"
#include "common/bitutils.hh"
#include "common/random.hh"
#include "common/strutils.hh"

namespace {

using namespace rrs;

TEST(BitUtils, PowerOfTwo)
{
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(2));
    EXPECT_FALSE(isPowerOf2(3));
    EXPECT_TRUE(isPowerOf2(1ULL << 40));
    EXPECT_FALSE(isPowerOf2((1ULL << 40) + 1));
}

TEST(Random, Deterministic)
{
    Random a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next64(), b.next64());
}

TEST(Random, ReseedRestoresSequence)
{
    Random a(7);
    std::vector<std::uint64_t> first;
    for (int i = 0; i < 16; ++i)
        first.push_back(a.next64());
    a.reseed(7);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(a.next64(), first[static_cast<std::size_t>(i)]);
}

TEST(Random, BelowInRange)
{
    Random r(3);
    for (int i = 0; i < 10000; ++i) {
        auto v = r.below(17);
        EXPECT_LT(v, 17u);
    }
}

TEST(Random, BetweenInclusive)
{
    Random r(9);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 10000; ++i) {
        auto v = r.between(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Random, UniformInUnitInterval)
{
    Random r(11);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double v = r.uniform();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(StrUtils, Trim)
{
    EXPECT_EQ(trim("  hello  "), "hello");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("\t x \n"), "x");
}

TEST(StrUtils, Split)
{
    auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(parts[3], "c");
}

TEST(StrUtils, ParseInt)
{
    EXPECT_EQ(parseInt("42").value(), 42);
    EXPECT_EQ(parseInt("-7").value(), -7);
    EXPECT_EQ(parseInt("0x10").value(), 16);
    EXPECT_EQ(parseInt("#12").value(), 12);
    EXPECT_FALSE(parseInt("12abc").has_value());
    EXPECT_FALSE(parseInt("").has_value());
}

TEST(StrUtils, ParseDouble)
{
    EXPECT_DOUBLE_EQ(parseDouble("1.5").value(), 1.5);
    EXPECT_DOUBLE_EQ(parseDouble("-2e3").value(), -2000.0);
    EXPECT_FALSE(parseDouble("nanx").has_value());
}

TEST(AtomicFile, WritesAndCreatesParents)
{
    const std::string dir = ::testing::TempDir() + "rrs_atomicfile";
    const std::string path = dir + "/a/b/out.json";
    std::string error;
    ASSERT_TRUE(tryWriteFileAtomic(path, "{\"x\": 1}\n", error)) << error;
    std::ifstream is(path);
    std::stringstream ss;
    ss << is.rdbuf();
    EXPECT_EQ(ss.str(), "{\"x\": 1}\n");
    // No stray temp file at the destination.
    EXPECT_FALSE(std::ifstream(path + ".tmp").good());
    std::filesystem::remove_all(dir);
}

TEST(AtomicFile, OverwriteReplacesWholeFile)
{
    const std::string dir = ::testing::TempDir() + "rrs_atomicfile2";
    const std::string path = dir + "/out.txt";
    std::string error;
    ASSERT_TRUE(tryWriteFileAtomic(path, "a much longer first version",
                                   error)) << error;
    ASSERT_TRUE(tryWriteFileAtomic(path, "short", error)) << error;
    std::ifstream is(path);
    std::stringstream ss;
    ss << is.rdbuf();
    EXPECT_EQ(ss.str(), "short");
    std::filesystem::remove_all(dir);
}

TEST(AtomicFile, MissingParentFailsWithoutCreateParents)
{
    const std::string dir = ::testing::TempDir() + "rrs_atomicfile3";
    std::string error;
    EXPECT_FALSE(tryWriteFileAtomic(dir + "/missing/out.txt", "x", error,
                                    /*createParents=*/false));
    EXPECT_FALSE(error.empty());
    std::filesystem::remove_all(dir);
}

} // namespace
