#include "util/strings.hpp"

#include <gtest/gtest.h>

#include "util/thread_pool.hpp"

namespace cn {
namespace {

TEST(Strings, WithCommas) {
  EXPECT_EQ(with_commas(std::uint64_t{0}), "0");
  EXPECT_EQ(with_commas(std::uint64_t{999}), "999");
  EXPECT_EQ(with_commas(std::uint64_t{1000}), "1,000");
  EXPECT_EQ(with_commas(std::uint64_t{1234567}), "1,234,567");
  EXPECT_EQ(with_commas(std::int64_t{-1234567}), "-1,234,567");
}

TEST(Strings, Fixed) {
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fixed(-0.5, 1), "-0.5");
  EXPECT_EQ(fixed(2.0, 0), "2");
}

TEST(Strings, Percent) {
  EXPECT_EQ(percent(0.1234), "12.34%");
  EXPECT_EQ(percent(1.0, 0), "100%");
}

TEST(Strings, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Strings, SplitNoSeparator) {
  const auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("\t\n a b \r"), "a b");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("/F2Pool/", "/F2"));
  EXPECT_FALSE(starts_with("F2", "/F2Pool/"));
}

TEST(Strings, ContainsIcase) {
  EXPECT_TRUE(contains_icase("Mined by /f2pool/ v1", "/F2Pool/"));
  EXPECT_TRUE(contains_icase("abc", ""));
  EXPECT_FALSE(contains_icase("short", "longer needle"));
  EXPECT_FALSE(contains_icase("viabtc", "slush"));
}

TEST(Strings, Padding) {
  EXPECT_EQ(pad_left("x", 3), "  x");
  EXPECT_EQ(pad_right("x", 3), "x  ");
  EXPECT_EQ(pad_left("abcd", 2), "abcd");
}

TEST(Strings, ParseU64AcceptsOnlyWholeUnsignedNumbers) {
  EXPECT_EQ(util::parse_u64("0"), 0u);
  EXPECT_EQ(util::parse_u64("42"), 42u);
  EXPECT_EQ(util::parse_u64("18446744073709551615"), UINT64_MAX);
  for (const char* bad : {"", "abc", "12abc", "1.5", " 7", "7 ", "+7", "-1",
                          "-0", "18446744073709551616", "0x10"}) {
    EXPECT_EQ(util::parse_u64(bad), std::nullopt) << "'" << bad << "'";
  }
}

TEST(Strings, ParseU64EnforcesTheThreadBound) {
  // --threads parses with util::kMaxThreads as its bound: a negative
  // count must not wrap to 2^64-1 (or to 4,294,967,295 lanes once cast
  // to unsigned), and a count past the bound is refused, not clamped.
  EXPECT_EQ(util::parse_u64("0", util::kMaxThreads), 0u);
  EXPECT_EQ(util::parse_u64("4", util::kMaxThreads), 4u);
  EXPECT_EQ(util::parse_u64(std::to_string(util::kMaxThreads), util::kMaxThreads),
            util::kMaxThreads);
  EXPECT_EQ(util::parse_u64(std::to_string(util::kMaxThreads + 1),
                            util::kMaxThreads),
            std::nullopt);
  EXPECT_EQ(util::parse_u64("-1", util::kMaxThreads), std::nullopt);
  EXPECT_EQ(util::parse_u64("4294967295", util::kMaxThreads), std::nullopt);
  EXPECT_EQ(util::parse_u64("18446744073709551615", util::kMaxThreads),
            std::nullopt);
}

TEST(Strings, ParseDoubleAcceptsOnlyWholeFiniteNumbers) {
  EXPECT_EQ(util::parse_double("0.001"), 0.001);
  EXPECT_EQ(util::parse_double("-2.5"), -2.5);
  EXPECT_EQ(util::parse_double("1e3"), 1000.0);
  EXPECT_EQ(util::parse_double("7"), 7.0);
  for (const char* bad : {"", "abc", "1e", "0.5x", " 1", "1 ", "inf", "-inf",
                          "nan", "1e999", "1e-999"}) {
    EXPECT_EQ(util::parse_double(bad), std::nullopt) << "'" << bad << "'";
  }
}

}  // namespace
}  // namespace cn
