#include "core/report.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "../helpers.hpp"

namespace cn::core {
namespace {

TEST(FormatPValue, ThresholdsAndPrecision) {
  EXPECT_EQ(format_p_value(0.0), "<0.001");
  EXPECT_EQ(format_p_value(0.0009), "<0.001");
  EXPECT_EQ(format_p_value(0.0012), "0.0012");
  EXPECT_EQ(format_p_value(0.2856), "0.2856");
  EXPECT_EQ(format_p_value(1.0), "1.0000");
}

TEST(WriteCdfCsv, ProducesHeaderAndMonotoneRows) {
  const std::string path = cn::test::unique_temp_path("cn_cdf", ".csv");
  std::vector<double> samples;
  for (int i = 0; i < 100; ++i) samples.push_back(static_cast<double>(i));
  const stats::Ecdf ecdf{std::span<const double>(samples)};
  ASSERT_TRUE(write_cdf_csv(path, ecdf, "delay"));

  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "delay,cdf");
  double prev_f = -1.0;
  std::string line;
  int rows = 0;
  while (std::getline(in, line)) {
    const auto comma = line.find(',');
    ASSERT_NE(comma, std::string::npos);
    const double f = std::stod(line.substr(comma + 1));
    EXPECT_GE(f, prev_f);
    prev_f = f;
    ++rows;
  }
  EXPECT_GT(rows, 50);
  EXPECT_DOUBLE_EQ(prev_f, 1.0);
  std::remove(path.c_str());
}

TEST(WriteCdfCsv, FailsGracefully) {
  const stats::Ecdf empty;
  EXPECT_FALSE(write_cdf_csv("/no-such-dir-xyz/a.csv", empty, "x"));
}

TEST(TablePrinter, DoesNotCrash) {
  // Smoke: printing to a scratch FILE* produces non-empty output.
  TablePrinter table({"a", "bb"}, {6, 8});
  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  table.print_header(tmp);
  table.print_row({"1", "2"}, tmp);
  EXPECT_GT(std::ftell(tmp), 10);
  std::fclose(tmp);
}

}  // namespace
}  // namespace cn::core
