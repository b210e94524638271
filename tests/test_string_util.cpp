/**
 * @file
 * Unit tests for string utilities (lower-casing, formatting).
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

} // namespace
