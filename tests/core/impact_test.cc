#include "core/impact.h"

#include <gtest/gtest.h>

namespace fairclean {
namespace {

std::vector<double> Constant(size_t n, double value) {
  return std::vector<double>(n, value);
}

std::vector<double> Wiggle(size_t n, double base, double step) {
  std::vector<double> out;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(base + (i % 2 == 0 ? step : -step));
  }
  return out;
}

TEST(ClassifyImpactTest, ClearImprovementHigherIsBetter) {
  std::vector<double> dirty = Wiggle(10, 0.70, 0.01);
  std::vector<double> repaired = Wiggle(10, 0.80, 0.01);
  Result<Impact> impact =
      ClassifyImpact(dirty, repaired, 0.05, /*higher_is_better=*/true);
  ASSERT_TRUE(impact.ok());
  EXPECT_EQ(*impact, Impact::kBetter);
}

TEST(ClassifyImpactTest, ClearDegradationHigherIsBetter) {
  std::vector<double> dirty = Wiggle(10, 0.80, 0.01);
  std::vector<double> repaired = Wiggle(10, 0.70, 0.01);
  Result<Impact> impact = ClassifyImpact(dirty, repaired, 0.05, true);
  ASSERT_TRUE(impact.ok());
  EXPECT_EQ(*impact, Impact::kWorse);
}

TEST(ClassifyImpactTest, LowerIsBetterFlipsDirection) {
  // Unfairness dropping from 0.3 to 0.1 is an improvement.
  std::vector<double> dirty = Wiggle(10, 0.30, 0.01);
  std::vector<double> repaired = Wiggle(10, 0.10, 0.01);
  Result<Impact> impact =
      ClassifyImpact(dirty, repaired, 0.05, /*higher_is_better=*/false);
  ASSERT_TRUE(impact.ok());
  EXPECT_EQ(*impact, Impact::kBetter);
  Result<Impact> reverse = ClassifyImpact(repaired, dirty, 0.05, false);
  ASSERT_TRUE(reverse.ok());
  EXPECT_EQ(*reverse, Impact::kWorse);
}

TEST(ClassifyImpactTest, NoisySmallDifferenceIsInsignificant) {
  std::vector<double> dirty = {0.70, 0.75, 0.68, 0.77, 0.71, 0.73};
  std::vector<double> repaired = {0.71, 0.73, 0.70, 0.75, 0.73, 0.70};
  Result<Impact> impact = ClassifyImpact(dirty, repaired, 0.05, true);
  ASSERT_TRUE(impact.ok());
  EXPECT_EQ(*impact, Impact::kInsignificant);
}

TEST(ClassifyImpactTest, IdenticalScoresInsignificant) {
  std::vector<double> scores = Constant(8, 0.8);
  Result<Impact> impact = ClassifyImpact(scores, scores, 0.05, true);
  ASSERT_TRUE(impact.ok());
  EXPECT_EQ(*impact, Impact::kInsignificant);
}

TEST(ClassifyImpactTest, StricterAlphaSuppressesBorderlineEffects) {
  std::vector<double> dirty = {0.70, 0.72, 0.69, 0.73, 0.71, 0.70};
  std::vector<double> repaired = {0.72, 0.74, 0.70, 0.74, 0.73, 0.72};
  Result<Impact> loose = ClassifyImpact(dirty, repaired, 0.05, true);
  Result<Impact> strict = ClassifyImpact(dirty, repaired, 1e-7, true);
  ASSERT_TRUE(loose.ok());
  ASSERT_TRUE(strict.ok());
  EXPECT_EQ(*loose, Impact::kBetter);
  EXPECT_EQ(*strict, Impact::kInsignificant);
}

TEST(ClassifyImpactTest, RejectsTooFewPairs) {
  EXPECT_FALSE(ClassifyImpact({1.0}, {2.0}, 0.05, true).ok());
}

TEST(ImpactNameTest, AllNames) {
  EXPECT_STREQ(ImpactName(Impact::kWorse), "worse");
  EXPECT_STREQ(ImpactName(Impact::kInsignificant), "insignificant");
  EXPECT_STREQ(ImpactName(Impact::kBetter), "better");
}

TEST(ImpactTableTest, CountsAndTotals) {
  ImpactTable table;
  table.Add(Impact::kWorse, Impact::kBetter);
  table.Add(Impact::kWorse, Impact::kBetter);
  table.Add(Impact::kBetter, Impact::kInsignificant);
  table.Add(Impact::kInsignificant, Impact::kInsignificant);
  EXPECT_EQ(table.cell(Impact::kWorse, Impact::kBetter), 2);
  EXPECT_EQ(table.cell(Impact::kBetter, Impact::kWorse), 0);
  EXPECT_EQ(table.RowTotal(Impact::kWorse), 2);
  EXPECT_EQ(table.ColumnTotal(Impact::kInsignificant), 2);
  EXPECT_EQ(table.Total(), 4);
  // The (worse, better) cell: 2 of 4 configurations.
  EXPECT_NE(table.Format("t").find(" 50.0% (  2)"), std::string::npos);
}

TEST(ImpactTableTest, EmptyTablePercentIsZero) {
  ImpactTable table;
  EXPECT_NE(table.Format("t").find("  0.0% (  0)"), std::string::npos);
  EXPECT_EQ(table.Total(), 0);
}

TEST(ImpactTableTest, AccumulationOperator) {
  ImpactTable a;
  a.Add(Impact::kWorse, Impact::kWorse);
  ImpactTable b;
  b.Add(Impact::kWorse, Impact::kWorse);
  b.Add(Impact::kBetter, Impact::kBetter);
  a += b;
  EXPECT_EQ(a.cell(Impact::kWorse, Impact::kWorse), 2);
  EXPECT_EQ(a.cell(Impact::kBetter, Impact::kBetter), 1);
  EXPECT_EQ(a.Total(), 3);
}

TEST(ImpactTableTest, FormatContainsCountsAndTitle) {
  ImpactTable table;
  table.Add(Impact::kWorse, Impact::kBetter);
  table.Add(Impact::kBetter, Impact::kBetter);
  std::string formatted = table.Format("Test Table");
  EXPECT_NE(formatted.find("Test Table"), std::string::npos);
  EXPECT_NE(formatted.find("fairness worse"), std::string::npos);
  EXPECT_NE(formatted.find("50.0%"), std::string::npos);
  EXPECT_NE(formatted.find("acc. better"), std::string::npos);
}

}  // namespace
}  // namespace fairclean
