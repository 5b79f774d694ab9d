// Small string helpers shared by report emitters and parsers.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace cn {

/// Formats a count with thousands separators, e.g. 1234567 -> "1,234,567".
std::string with_commas(std::uint64_t n);
std::string with_commas(std::int64_t n);

/// Fixed-precision decimal formatting (no locale dependence).
std::string fixed(double value, int decimals);

/// Formats a fraction as a percentage string, e.g. 0.1234, 2 -> "12.34%".
std::string percent(double fraction, int decimals = 2);

/// Splits on a single character; keeps empty fields.
std::vector<std::string_view> split(std::string_view s, char sep);

/// Trims ASCII whitespace from both ends.
std::string_view trim(std::string_view s);

/// True if @p s begins with @p prefix.
bool starts_with(std::string_view s, std::string_view prefix);

/// Case-insensitive ASCII substring search.
bool contains_icase(std::string_view haystack, std::string_view needle);

/// Left/right padding to a minimum width (spaces).
std::string pad_left(std::string_view s, std::size_t width);
std::string pad_right(std::string_view s, std::size_t width);

namespace util {

/// Whole-string number parsers for command-line and environment values.
/// Each returns nullopt, never a silent 0, on an empty string, leading
/// whitespace, trailing characters or an out-of-range value (ERANGE);
/// parse_u64 also rejects any sign ("-1" would wrap to 2^64-1) and values
/// above @p max, parse_double also rejects inf and nan.
std::optional<std::uint64_t> parse_u64(
    std::string_view text,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());
std::optional<double> parse_double(std::string_view text);

}  // namespace util

}  // namespace cn
