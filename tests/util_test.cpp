#include <gtest/gtest.h>

#include "util/chart.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

namespace rdmamon::util {
namespace {

TEST(Format, DurationUnits) {
  EXPECT_EQ(format_duration_ns(500), "500ns");
  EXPECT_EQ(format_duration_ns(1'500), "1.5us");
  EXPECT_EQ(format_duration_ns(12'000'000), "12ms");
  EXPECT_EQ(format_duration_ns(3'200'000'000ll), "3.2s");
}

TEST(Format, NegativeDuration) {
  EXPECT_EQ(format_duration_ns(-1'500), "-1.5us");
}

TEST(Format, Percent) { EXPECT_EQ(format_percent(0.425), "42.5%"); }

TEST(Format, Bytes) {
  EXPECT_EQ(format_bytes(512), "512B");
  EXPECT_EQ(format_bytes(1536), "1.5KiB");
  EXPECT_EQ(format_bytes(3u << 20), "3.0MiB");
}

TEST(Format, DoubleTrimsZeros) {
  EXPECT_EQ(format_double(3.1400, 4), "3.14");
  EXPECT_EQ(format_double(10.0, 2), "10");
}

TEST(Format, Padding) {
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_left("abcdef", 4), "abcdef");
}

TEST(Table, RendersHeaderAndRows) {
  Table t;
  t.set_header({"Query", "Avg", "Max"});
  t.set_align(0, Align::Left);
  t.add_row({"Home", "3", "416"});
  t.add_row({"Browse", "3", "495"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("Query"), std::string::npos);
  EXPECT_NE(out.find("Browse"), std::string::npos);
  EXPECT_NE(out.find("495"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, SeparatorAndRaggedRows) {
  Table t;
  t.set_header({"a", "b"});
  t.add_row({"1"});
  t.add_separator();
  t.add_row({"2", "3", "4"});  // wider than header
  const std::string out = t.to_string();
  EXPECT_NE(out.find('4'), std::string::npos);
}

TEST(Chart, RendersSeriesAndLegend) {
  AsciiChart c("Latency", {"1", "2", "4"});
  c.add_series({"sock", {10, 20, 40}});
  c.add_series({"rdma", {12, 12, 12}});
  const std::string out = c.render();
  EXPECT_NE(out.find("Latency"), std::string::npos);
  EXPECT_NE(out.find("legend:"), std::string::npos);
  EXPECT_NE(out.find("sock"), std::string::npos);
  EXPECT_NE(out.find("rdma"), std::string::npos);
}

TEST(Chart, RejectsMismatchedSeries) {
  AsciiChart c("t", {"a", "b"});
  EXPECT_THROW(c.add_series({"s", {1.0}}), std::invalid_argument);
}

TEST(Chart, FixedRangeClamps) {
  AsciiChart c("t", {"a"});
  c.set_y_range(0, 1);
  c.add_series({"s", {100.0}});  // above range: clamped to top row
  EXPECT_FALSE(c.render().empty());
}

}  // namespace
}  // namespace rdmamon::util
