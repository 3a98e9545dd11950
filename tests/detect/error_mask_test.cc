#include "detect/error_mask.h"

#include <gtest/gtest.h>

namespace fairclean {
namespace {

TEST(ErrorMaskTest, StartsEmpty) {
  ErrorMask mask(5);
  EXPECT_EQ(mask.num_rows(), 5u);
  EXPECT_EQ(mask.FlaggedRowCount(), 0u);
  EXPECT_EQ(mask.FlaggedCellCount(), 0u);
  for (size_t row = 0; row < 5; ++row) {
    EXPECT_FALSE(mask.RowFlagged(row));
  }
}

TEST(ErrorMaskTest, CellFlagsPropagateToRows) {
  ErrorMask mask(4);
  mask.FlagCell("a", 1);
  mask.FlagCell("b", 1);
  mask.FlagCell("b", 3);
  EXPECT_TRUE(mask.CellFlagged("a", 1));
  EXPECT_FALSE(mask.CellFlagged("a", 0));
  EXPECT_FALSE(mask.CellFlagged("zzz", 0));
  EXPECT_TRUE(mask.RowFlagged(1));
  EXPECT_TRUE(mask.RowFlagged(3));
  EXPECT_FALSE(mask.RowFlagged(0));
  EXPECT_EQ(mask.FlaggedRowCount(), 2u);
  EXPECT_EQ(mask.FlaggedCellCount(), 3u);
}

TEST(ErrorMaskTest, RowFlagsIndependentOfCells) {
  ErrorMask mask(3);
  mask.FlagRow(2);
  EXPECT_TRUE(mask.RowFlagged(2));
  EXPECT_FALSE(mask.CellFlagged("a", 2));
  EXPECT_EQ(mask.FlaggedRowCount(), 1u);
  EXPECT_EQ(mask.FlaggedCellCount(), 0u);
}

TEST(ErrorMaskTest, DoubleFlaggingIsIdempotent) {
  ErrorMask mask(2);
  mask.FlagCell("a", 0);
  mask.FlagCell("a", 0);
  mask.FlagRow(0);
  EXPECT_EQ(mask.FlaggedCellCount(), 1u);
  EXPECT_EQ(mask.FlaggedRowCount(), 1u);
}

}  // namespace
}  // namespace fairclean
