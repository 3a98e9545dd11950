#include "stats/descriptive.h"

#include <cmath>

#include <gtest/gtest.h>

namespace fairclean {
namespace {

const double kNaN = std::nan("");

TEST(DescriptiveTest, MeanSkipsNaN) {
  Result<double> mean = Mean({1.0, kNaN, 3.0});
  ASSERT_TRUE(mean.ok());
  EXPECT_DOUBLE_EQ(*mean, 2.0);
}

TEST(DescriptiveTest, MeanFailsOnAllMissing) {
  EXPECT_FALSE(Mean({kNaN, kNaN}).ok());
  EXPECT_FALSE(Mean({}).ok());
}

TEST(DescriptiveTest, SampleVarianceMatchesNumpyDdof1) {
  // numpy.var([2, 4, 4, 4, 5, 5, 7, 9], ddof=1) = 4.571428...
  Result<double> var = SampleVariance({2, 4, 4, 4, 5, 5, 7, 9});
  ASSERT_TRUE(var.ok());
  EXPECT_NEAR(*var, 32.0 / 7.0, 1e-12);
}

TEST(DescriptiveTest, VarianceRequiresTwoValues) {
  EXPECT_FALSE(SampleVariance({1.0}).ok());
  EXPECT_FALSE(SampleVariance({1.0, kNaN}).ok());
}

TEST(DescriptiveTest, StdDevIsSqrtOfVariance) {
  Result<double> sd = SampleStdDev({1.0, 3.0});
  ASSERT_TRUE(sd.ok());
  EXPECT_NEAR(*sd, std::sqrt(2.0), 1e-12);
}

TEST(DescriptiveTest, PercentileLinearInterpolation) {
  std::vector<double> values = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(*Percentile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(*Percentile(values, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(*Percentile(values, 25.0), 1.75);  // numpy 'linear'
  EXPECT_DOUBLE_EQ(*Percentile(values, 50.0), 2.5);
}

TEST(DescriptiveTest, PercentileUnsortedInput) {
  EXPECT_DOUBLE_EQ(*Percentile({4.0, 1.0, 3.0, 2.0}, 50.0), 2.5);
}

TEST(DescriptiveTest, PercentileSingleValue) {
  EXPECT_DOUBLE_EQ(*Percentile({7.0}, 99.0), 7.0);
}

TEST(DescriptiveTest, PercentileRejectsOutOfRange) {
  EXPECT_FALSE(Percentile({1.0}, -1.0).ok());
  EXPECT_FALSE(Percentile({1.0}, 101.0).ok());
}

TEST(DescriptiveTest, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(*Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(*Median({1.0, 2.0, 3.0, 4.0}), 2.5);
}

TEST(DescriptiveTest, NumericModeMostFrequent) {
  EXPECT_DOUBLE_EQ(*NumericMode({1.0, 2.0, 2.0, 3.0, kNaN}), 2.0);
}

TEST(DescriptiveTest, NumericModeTieBreaksSmaller) {
  EXPECT_DOUBLE_EQ(*NumericMode({5.0, 1.0, 5.0, 1.0}), 1.0);
}

TEST(DescriptiveTest, CodeModeSkipsMissing) {
  Result<int32_t> mode = CodeMode({0, 1, 1, -1, -1, -1}, -1);
  ASSERT_TRUE(mode.ok());
  EXPECT_EQ(*mode, 1);
}

TEST(DescriptiveTest, CodeModeFailsOnAllMissing) {
  EXPECT_FALSE(CodeMode({-1, -1}, -1).ok());
}

}  // namespace
}  // namespace fairclean
