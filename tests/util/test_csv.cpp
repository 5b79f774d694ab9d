#include "util/csv.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "../helpers.hpp"

namespace cn {
namespace {

std::string read_all(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(CsvEscape, PlainFieldUntouched) {
  EXPECT_EQ(csv_escape("hello"), "hello");
}

TEST(CsvEscape, QuotesFieldsWithSeparators) {
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(CsvEscape, DoublesEmbeddedQuotes) {
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

class CsvWriterTest : public ::testing::Test {
 protected:
  std::string path_ = cn::test::unique_temp_path("cn_csv_test", ".csv");
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(CsvWriterTest, WritesHeaderAndRows) {
  {
    CsvWriter csv(path_);
    ASSERT_TRUE(csv.ok());
    csv.header({"name", "value"});
    csv.field("pi").field(3.14159, 2);
    csv.end_row();
    csv.field("n").field(std::int64_t{-5});
    csv.end_row();
  }
  EXPECT_EQ(read_all(path_), "name,value\npi,3.14\nn,-5\n");
}

TEST_F(CsvWriterTest, QuotesSpecialFields) {
  {
    CsvWriter csv(path_);
    csv.field("a,b").field(std::uint64_t{7});
    csv.end_row();
  }
  EXPECT_EQ(read_all(path_), "\"a,b\",7\n");
}

TEST(CsvWriter, ReportsFailureForBadPath) {
  CsvWriter csv("/nonexistent-dir-xyz/file.csv");
  EXPECT_FALSE(csv.ok());
  EXPECT_FALSE(csv.close());
}

TEST_F(CsvWriterTest, CloseReportsSuccessAndIsIdempotent) {
  CsvWriter csv(path_);
  csv.field("a").end_row();
  EXPECT_TRUE(csv.close());
  EXPECT_TRUE(csv.close());  // second close keeps the verdict
}

class CsvReaderEdgeTest : public ::testing::Test {
 protected:
  std::string path_ = cn::test::unique_temp_path("cn_csv_edge", ".csv");
  void TearDown() override { std::remove(path_.c_str()); }

  void write_raw(const std::string& content) {
    std::ofstream out(path_, std::ios::binary);
    out << content;
  }
};

TEST_F(CsvReaderEdgeTest, HandlesCrlfLineEndings) {
  write_raw("a,b\r\n1,2\r\n3,4\r\n");
  CsvReader reader(path_);
  std::vector<std::string> row;
  ASSERT_TRUE(reader.next_row(row));
  EXPECT_EQ(row, (std::vector<std::string>{"a", "b"}));
  ASSERT_TRUE(reader.next_row(row));
  EXPECT_EQ(row, (std::vector<std::string>{"1", "2"}));
  ASSERT_TRUE(reader.next_row(row));
  EXPECT_EQ(row, (std::vector<std::string>{"3", "4"}));
  EXPECT_FALSE(reader.next_row(row));
}

TEST_F(CsvReaderEdgeTest, HandlesMissingTrailingNewline) {
  write_raw("a,b\n1,2");
  CsvReader reader(path_);
  std::vector<std::string> row;
  ASSERT_TRUE(reader.next_row(row));
  ASSERT_TRUE(reader.next_row(row));
  EXPECT_EQ(row, (std::vector<std::string>{"1", "2"}));
  EXPECT_FALSE(reader.truncated());  // complete record, just no newline
  EXPECT_FALSE(reader.next_row(row));
}

TEST_F(CsvReaderEdgeTest, FlagsUnterminatedQuoteAtEof) {
  write_raw("a,b\n1,\"unclosed");
  CsvReader reader(path_);
  std::vector<std::string> row;
  ASSERT_TRUE(reader.next_row(row));
  EXPECT_FALSE(reader.truncated());
  ASSERT_TRUE(reader.next_row(row));
  EXPECT_TRUE(reader.truncated());
  EXPECT_FALSE(reader.next_row(row));
}

TEST_F(CsvReaderEdgeTest, FlagsQuotedFieldCutMidNewline) {
  // A quoted field legitimately spans lines; EOF inside it is truncation.
  write_raw("a,b\n1,\"line\nbroke here");
  CsvReader reader(path_);
  std::vector<std::string> row;
  ASSERT_TRUE(reader.next_row(row));
  ASSERT_TRUE(reader.next_row(row));
  EXPECT_TRUE(reader.truncated());
  EXPECT_EQ(row[1], "line\nbroke here");
}

TEST_F(CsvReaderEdgeTest, TracksPhysicalLineNumbers) {
  write_raw("h1,h2\nr1,x\n\"multi\nline\",y\nr3,z\n");
  CsvReader reader(path_);
  std::vector<std::string> row;
  ASSERT_TRUE(reader.next_row(row));
  EXPECT_EQ(reader.line(), 1u);
  ASSERT_TRUE(reader.next_row(row));
  EXPECT_EQ(reader.line(), 2u);
  ASSERT_TRUE(reader.next_row(row));
  EXPECT_EQ(reader.line(), 3u);  // record starts on line 3, spans 3-4
  ASSERT_TRUE(reader.next_row(row));
  EXPECT_EQ(reader.line(), 5u);  // the embedded newline advanced the count
  EXPECT_EQ(row[0], "r3");
}

TEST_F(CsvReaderEdgeTest, EmptyFileYieldsNoRows) {
  write_raw("");
  CsvReader reader(path_);
  std::vector<std::string> row;
  EXPECT_FALSE(reader.next_row(row));
}

}  // namespace
}  // namespace cn
