#include "data/dataframe.h"

#include <cmath>

#include <gtest/gtest.h>

namespace fairclean {
namespace {

DataFrame MakeTestFrame() {
  DataFrame frame;
  EXPECT_TRUE(
      frame.AddColumn(Column::Numeric("x", {1.0, 2.0, std::nan("")})).ok());
  EXPECT_TRUE(frame
                  .AddColumn(Column::Categorical("c", {0, 1, 0}, {"a", "b"}))
                  .ok());
  return frame;
}

TEST(DataFrameTest, AddColumnAndDimensions) {
  DataFrame frame = MakeTestFrame();
  EXPECT_EQ(frame.num_rows(), 3u);
  EXPECT_EQ(frame.num_columns(), 2u);
  EXPECT_TRUE(frame.HasColumn("x"));
  EXPECT_FALSE(frame.HasColumn("nope"));
}

TEST(DataFrameTest, AddDuplicateFails) {
  DataFrame frame = MakeTestFrame();
  Status status = frame.AddColumn(Column::Numeric("x", {1.0, 2.0, 3.0}));
  EXPECT_EQ(status.code(), StatusCode::kAlreadyExists);
}

TEST(DataFrameTest, AddLengthMismatchFails) {
  DataFrame frame = MakeTestFrame();
  Status status = frame.AddColumn(Column::Numeric("y", {1.0}));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(DataFrameTest, ColumnAccessByName) {
  DataFrame frame = MakeTestFrame();
  EXPECT_DOUBLE_EQ(frame.column("x").Value(0), 1.0);
  EXPECT_EQ(frame.column("c").Code(1), 1);
  EXPECT_EQ(&frame.column("c"), &frame.column(1));
}

TEST(DataFrameTest, MutableColumnWritesThrough) {
  DataFrame frame = MakeTestFrame();
  frame.mutable_column("x").SetValue(0, 9.0);
  EXPECT_DOUBLE_EQ(frame.column("x").Value(0), 9.0);
}

TEST(DataFrameTest, ColumnNamesInOrder) {
  DataFrame frame = MakeTestFrame();
  std::vector<std::string> names = frame.column_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "x");
  EXPECT_EQ(names[1], "c");
}

TEST(DataFrameTest, TakeSelectsRows) {
  DataFrame frame = MakeTestFrame();
  DataFrame taken = frame.Take({1, 0});
  EXPECT_EQ(taken.num_rows(), 2u);
  EXPECT_DOUBLE_EQ(taken.column("x").Value(0), 2.0);
  EXPECT_EQ(taken.column("c").Code(1), 0);
}

TEST(DataFrameTest, FilterRows) {
  DataFrame frame = MakeTestFrame();
  DataFrame filtered = frame.FilterRows({true, false, true});
  EXPECT_EQ(filtered.num_rows(), 2u);
  EXPECT_TRUE(filtered.column("x").IsMissing(1));
}

TEST(DataFrameTest, RowsWithMissing) {
  DataFrame frame = MakeTestFrame();
  std::vector<size_t> rows = frame.RowsWithMissing();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], 2u);
}

TEST(DataFrameTest, EmptyFrame) {
  DataFrame frame;
  EXPECT_EQ(frame.num_rows(), 0u);
  EXPECT_EQ(frame.num_columns(), 0u);
  EXPECT_TRUE(frame.RowsWithMissing().empty());
}

}  // namespace
}  // namespace fairclean
