#include "fairness/fairness_metrics.h"

#include <cmath>

#include <gtest/gtest.h>

namespace fairclean {
namespace {

GroupAssignment MakeAssignment(const std::vector<int>& membership) {
  // 1 = privileged, 0 = disadvantaged, -1 = excluded.
  GroupAssignment assignment;
  for (int m : membership) {
    assignment.privileged.push_back(m == 1);
    assignment.disadvantaged.push_back(m == 0);
  }
  return assignment;
}

TEST(GroupConfusionTest, SplitsByGroup) {
  std::vector<int> y_true = {1, 0, 1, 0, 1, 0};
  std::vector<int> y_pred = {1, 1, 0, 0, 1, 0};
  GroupAssignment groups = MakeAssignment({1, 1, 1, 0, 0, 0});
  GroupConfusion confusion =
      ComputeGroupConfusion(y_true, y_pred, groups).ValueOrDie();
  EXPECT_EQ(confusion.privileged.tp, 1);
  EXPECT_EQ(confusion.privileged.fp, 1);
  EXPECT_EQ(confusion.privileged.fn, 1);
  EXPECT_EQ(confusion.privileged.tn, 0);
  EXPECT_EQ(confusion.disadvantaged.tp, 1);
  EXPECT_EQ(confusion.disadvantaged.tn, 2);
  EXPECT_EQ(confusion.disadvantaged.total(), 3);
}

TEST(GroupConfusionTest, ExcludedRowsIgnored) {
  std::vector<int> y_true = {1, 1, 1};
  std::vector<int> y_pred = {1, 1, 1};
  GroupAssignment groups = MakeAssignment({1, -1, 0});
  GroupConfusion confusion =
      ComputeGroupConfusion(y_true, y_pred, groups).ValueOrDie();
  EXPECT_EQ(confusion.privileged.total() + confusion.disadvantaged.total(),
            2);
}

TEST(GroupConfusionTest, RejectsBadInput) {
  GroupAssignment groups = MakeAssignment({1, 0});
  EXPECT_FALSE(ComputeGroupConfusion({1}, {1, 0}, groups).ok());
  EXPECT_FALSE(ComputeGroupConfusion({1, 2}, {1, 0}, groups).ok());
}

GroupConfusion MakeConfusion(int64_t tp_p, int64_t fp_p, int64_t fn_p,
                             int64_t tn_p, int64_t tp_d, int64_t fp_d,
                             int64_t fn_d, int64_t tn_d) {
  GroupConfusion confusion;
  confusion.privileged.tp = tp_p;
  confusion.privileged.fp = fp_p;
  confusion.privileged.fn = fn_p;
  confusion.privileged.tn = tn_p;
  confusion.disadvantaged.tp = tp_d;
  confusion.disadvantaged.fp = fp_d;
  confusion.disadvantaged.fn = fn_d;
  confusion.disadvantaged.tn = tn_d;
  return confusion;
}

TEST(FairnessGapTest, PredictiveParityIsPrecisionDifference) {
  // priv precision 8/10, dis precision 6/10 -> gap 0.2.
  GroupConfusion confusion = MakeConfusion(8, 2, 5, 5, 6, 4, 5, 5);
  EXPECT_NEAR(FairnessGap(FairnessMetric::kPredictiveParity, confusion), 0.2,
              1e-12);
}

TEST(FairnessGapTest, EqualOpportunityIsRecallDifference) {
  // priv recall 8/13, dis recall 6/11.
  GroupConfusion confusion = MakeConfusion(8, 2, 5, 5, 6, 4, 5, 5);
  EXPECT_NEAR(FairnessGap(FairnessMetric::kEqualOpportunity, confusion),
              8.0 / 13.0 - 6.0 / 11.0, 1e-12);
}

TEST(FairnessGapTest, DemographicParityIsPositiveRateDifference) {
  GroupConfusion confusion = MakeConfusion(8, 2, 5, 5, 6, 4, 5, 5);
  EXPECT_NEAR(FairnessGap(FairnessMetric::kDemographicParity, confusion),
              10.0 / 20.0 - 10.0 / 20.0, 1e-12);
}

TEST(FairnessGapTest, FalsePositiveRateParity) {
  GroupConfusion confusion = MakeConfusion(8, 2, 5, 5, 6, 4, 5, 5);
  EXPECT_NEAR(
      FairnessGap(FairnessMetric::kFalsePositiveRateParity, confusion),
      2.0 / 7.0 - 4.0 / 9.0, 1e-12);
}

TEST(FairnessGapTest, FprGapIsNanWhenAGroupHasNoNegatives) {
  // The privileged group has fp + tn == 0: its false-positive rate is
  // undefined, and the gap must say so instead of reporting a fake 0.
  GroupConfusion no_priv_negatives = MakeConfusion(8, 0, 5, 0, 6, 4, 5, 5);
  EXPECT_TRUE(std::isnan(FairnessGap(FairnessMetric::kFalsePositiveRateParity,
                                     no_priv_negatives)));
  EXPECT_TRUE(std::isnan(AbsoluteFairnessGap(
      FairnessMetric::kFalsePositiveRateParity, no_priv_negatives)));
  GroupConfusion no_dis_negatives = MakeConfusion(8, 2, 5, 5, 6, 0, 5, 0);
  EXPECT_TRUE(std::isnan(FairnessGap(FairnessMetric::kFalsePositiveRateParity,
                                     no_dis_negatives)));
  // The other gaps stay finite on the same matrices.
  for (FairnessMetric metric :
       {FairnessMetric::kPredictiveParity, FairnessMetric::kEqualOpportunity,
        FairnessMetric::kDemographicParity,
        FairnessMetric::kAccuracyParity}) {
    EXPECT_TRUE(std::isfinite(FairnessGap(metric, no_priv_negatives)));
  }
}

TEST(FairnessGapTest, AccuracyParity) {
  GroupConfusion confusion = MakeConfusion(8, 2, 5, 5, 6, 4, 5, 5);
  EXPECT_NEAR(FairnessGap(FairnessMetric::kAccuracyParity, confusion),
              13.0 / 20.0 - 11.0 / 20.0, 1e-12);
}

TEST(FairnessGapTest, EqualGroupsHaveZeroGap) {
  GroupConfusion confusion = MakeConfusion(5, 3, 2, 10, 5, 3, 2, 10);
  for (FairnessMetric metric :
       {FairnessMetric::kPredictiveParity, FairnessMetric::kEqualOpportunity,
        FairnessMetric::kDemographicParity,
        FairnessMetric::kFalsePositiveRateParity,
        FairnessMetric::kAccuracyParity}) {
    EXPECT_DOUBLE_EQ(FairnessGap(metric, confusion), 0.0);
    EXPECT_DOUBLE_EQ(AbsoluteFairnessGap(metric, confusion), 0.0);
  }
}

TEST(FairnessGapTest, SwapSymmetry) {
  // Swapping privileged and disadvantaged negates the signed gap but keeps
  // the absolute gap.
  GroupConfusion confusion = MakeConfusion(8, 2, 5, 5, 6, 4, 5, 5);
  GroupConfusion swapped = MakeConfusion(6, 4, 5, 5, 8, 2, 5, 5);
  for (FairnessMetric metric :
       {FairnessMetric::kPredictiveParity,
        FairnessMetric::kEqualOpportunity}) {
    EXPECT_NEAR(FairnessGap(metric, confusion),
                -FairnessGap(metric, swapped), 1e-12);
    EXPECT_NEAR(AbsoluteFairnessGap(metric, confusion),
                AbsoluteFairnessGap(metric, swapped), 1e-12);
  }
}

}  // namespace
}  // namespace fairclean
