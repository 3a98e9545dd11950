#include "data/column.h"

#include <cmath>

#include <gtest/gtest.h>

namespace fairclean {
namespace {

TEST(ColumnTest, NumericBasics) {
  Column col = Column::Numeric("x", {1.0, 2.0, 3.0});
  EXPECT_EQ(col.name(), "x");
  EXPECT_TRUE(col.is_numeric());
  EXPECT_EQ(col.size(), 3u);
  EXPECT_DOUBLE_EQ(col.Value(1), 2.0);
}

TEST(ColumnTest, NumericMissingIsNaN) {
  Column col = Column::Numeric("x", {1.0, std::nan(""), 3.0});
  EXPECT_FALSE(col.IsMissing(0));
  EXPECT_TRUE(col.IsMissing(1));
  EXPECT_EQ(col.MissingCount(), 1u);
}

TEST(ColumnTest, SetMissingNumeric) {
  Column col = Column::Numeric("x", {1.0, 2.0});
  col.SetValue(0, std::nan(""));
  EXPECT_TRUE(col.IsMissing(0));
  EXPECT_FALSE(col.IsMissing(1));
}

TEST(ColumnTest, CategoricalBasics) {
  Column col = Column::Categorical("c", {0, 1, 0}, {"a", "b"});
  EXPECT_TRUE(col.is_categorical());
  EXPECT_EQ(col.Code(1), 1);
  EXPECT_EQ(col.CategoryName(0), "a");
  EXPECT_EQ(col.CodeOf("b"), 1);
  EXPECT_EQ(col.CodeOf("zzz"), Column::kMissingCode);
}

TEST(ColumnTest, CategoricalMissing) {
  Column col = Column::Categorical("c", {0, Column::kMissingCode}, {"a"});
  EXPECT_TRUE(col.IsMissing(1));
  EXPECT_EQ(col.MissingCount(), 1u);
  EXPECT_EQ(col.CategoryName(Column::kMissingCode), "<missing>");
}

TEST(ColumnTest, GetOrAddCategoryAppends) {
  Column col = Column::Categorical("c", {0}, {"a"});
  EXPECT_EQ(col.GetOrAddCategory("a"), 0);
  EXPECT_EQ(col.GetOrAddCategory("new"), 1);
  EXPECT_EQ(col.dictionary().size(), 2u);
  EXPECT_EQ(col.GetOrAddCategory("new"), 1);  // idempotent
}

TEST(ColumnTest, SetCodeValidatesRange) {
  Column col = Column::Categorical("c", {0, 0}, {"a", "b"});
  col.SetCode(0, 1);
  EXPECT_EQ(col.Code(0), 1);
  col.SetCode(1, Column::kMissingCode);
  EXPECT_TRUE(col.IsMissing(1));
}

TEST(ColumnTest, TakeNumericPreservesValuesAndMissing) {
  Column col = Column::Numeric("x", {1.0, std::nan(""), 3.0, 4.0});
  Column taken = col.Take({3, 1, 0});
  ASSERT_EQ(taken.size(), 3u);
  EXPECT_DOUBLE_EQ(taken.Value(0), 4.0);
  EXPECT_TRUE(taken.IsMissing(1));
  EXPECT_DOUBLE_EQ(taken.Value(2), 1.0);
}

TEST(ColumnTest, TakeCategoricalSharesDictionary) {
  Column col = Column::Categorical("c", {0, 1, 1}, {"a", "b"});
  Column taken = col.Take({2, 2});
  EXPECT_EQ(taken.dictionary(), col.dictionary());
  EXPECT_EQ(taken.Code(0), 1);
}

TEST(ColumnTest, TakeAllowsRepetition) {
  Column col = Column::Numeric("x", {5.0});
  Column taken = col.Take({0, 0, 0});
  EXPECT_EQ(taken.size(), 3u);
}

}  // namespace
}  // namespace fairclean
