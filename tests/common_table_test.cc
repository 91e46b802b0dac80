#include "bdi/common/table.h"

#include <gtest/gtest.h>

#include <string>

namespace bdi {
namespace {

TEST(TextTableTest, AlignsColumns) {
  TextTable table({"name", "v"});
  table.AddRow({"alpha", "1"});
  table.AddRow({"b", "22"});
  std::string out = table.ToString();
  EXPECT_NE(out.find("name   v"), std::string::npos);
  EXPECT_NE(out.find("alpha  1"), std::string::npos);
  EXPECT_NE(out.find("b      22"), std::string::npos);
}

TEST(TextTableTest, DoubleRowsFormatted) {
  TextTable table({"m", "p", "r"});
  table.AddRow("vote", {0.51234, 0.9}, 3);
  EXPECT_EQ(table.num_rows(), 1u);
  std::string out = table.ToString("title");
  EXPECT_NE(out.find("== title =="), std::string::npos);
  EXPECT_NE(out.find("0.512"), std::string::npos);
  EXPECT_NE(out.find("0.9"), std::string::npos);
}

TEST(TextTableTest, ShortRowsPadded) {
  TextTable table({"a", "b", "c"});
  table.AddRow({"only"});
  EXPECT_NO_THROW(table.ToString());
}

}  // namespace
}  // namespace bdi
