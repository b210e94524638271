/**
 * @file
 * Unit tests for string utilities (lower-casing, formatting, strict
 * number parsing).
 */

#include <gtest/gtest.h>

#include "util/string_util.hpp"

namespace {

using namespace sievestore::util;

TEST(ToLower, AsciiOnly)
{
    EXPECT_EQ(toLower("PrXy"), "prxy");
    EXPECT_EQ(toLower("abc123"), "abc123");
}

TEST(FormatBytes, Units)
{
    EXPECT_EQ(formatBytes(512), "512 B");
    EXPECT_EQ(formatBytes(16ULL << 30), "16.0 GiB");
    EXPECT_EQ(formatBytes(1536), "1.5 KiB");
}

TEST(FormatCount, ThousandsSeparators)
{
    EXPECT_EQ(formatCount(0), "0");
    EXPECT_EQ(formatCount(999), "999");
    EXPECT_EQ(formatCount(1000), "1,000");
    EXPECT_EQ(formatCount(434226711), "434,226,711");
}

TEST(ParseDouble, WholeStringFiniteOnly)
{
    double v = -1.0;
    EXPECT_TRUE(parseDouble("4096", v));
    EXPECT_EQ(v, 4096.0);
    EXPECT_TRUE(parseDouble("1e3", v));
    EXPECT_EQ(v, 1000.0);
    EXPECT_TRUE(parseDouble("0.5", v));
    EXPECT_EQ(v, 0.5);
    v = 7.0;
    for (const char *bad : {"", "abc", "12x", "4096 ", "inf", "nan",
                            "1e999", "--help"})
        EXPECT_FALSE(parseDouble(bad, v)) << bad;
    EXPECT_EQ(v, 7.0); // untouched on failure
}

TEST(ParseUint64, WholeStringNoSignNoOverflow)
{
    uint64_t v = 1;
    EXPECT_TRUE(parseUint64("0", v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(parseUint64("18446744073709551615", v));
    EXPECT_EQ(v, UINT64_MAX);
    EXPECT_TRUE(parseUint64("0x51e5e5704e", v));
    EXPECT_EQ(v, 0x51e5e5704eULL);
    v = 7;
    for (const char *bad : {"", "-1", "+1", " 1", "12x", "1.5",
                            "18446744073709551616", "abc"})
        EXPECT_FALSE(parseUint64(bad, v)) << bad;
    EXPECT_EQ(v, 7u); // untouched on failure
}

} // namespace
