#include "ml/encoder.h"

#include <cmath>

#include <gtest/gtest.h>

namespace fairclean {
namespace {

DataFrame MakeFrame() {
  DataFrame frame;
  EXPECT_TRUE(
      frame.AddColumn(Column::Numeric("num", {1.0, 2.0, 3.0, 4.0})).ok());
  EXPECT_TRUE(frame
                  .AddColumn(Column::Categorical("cat", {0, 1, 0, 2},
                                                 {"a", "b", "c"}))
                  .ok());
  EXPECT_TRUE(
      frame.AddColumn(Column::Numeric("label", {0.0, 1.0, 0.0, 1.0})).ok());
  return frame;
}

TEST(FeatureEncoderTest, DimensionsAndStandardization) {
  DataFrame frame = MakeFrame();
  FeatureEncoder encoder;
  ASSERT_TRUE(encoder.Fit(frame, {"num", "cat"}).ok());
  EXPECT_EQ(encoder.num_features(), 1u + 3u);
  Result<Matrix> x = encoder.Transform(frame);
  ASSERT_TRUE(x.ok());
  EXPECT_EQ(x->rows(), 4u);
  // Standardized numeric column has mean 0.
  double sum = 0.0;
  for (size_t r = 0; r < 4; ++r) sum += (*x)(r, 0);
  EXPECT_NEAR(sum, 0.0, 1e-12);
  // Sample stddev 1: values (1,2,3,4), mean 2.5, sd ~1.29.
  EXPECT_NEAR((*x)(0, 0), (1.0 - 2.5) / std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(FeatureEncoderTest, OneHotLayout) {
  DataFrame frame = MakeFrame();
  FeatureEncoder encoder;
  ASSERT_TRUE(encoder.Fit(frame, {"cat"}).ok());
  Matrix x = encoder.Transform(frame).ValueOrDie();
  // Row 0 has category a -> slot 0.
  EXPECT_DOUBLE_EQ(x(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(x(0, 1), 0.0);
  // Row 3 has category c -> slot 2.
  EXPECT_DOUBLE_EQ(x(3, 2), 1.0);
  // Exactly one slot active per row.
  for (size_t r = 0; r < 4; ++r) {
    double sum = x(r, 0) + x(r, 1) + x(r, 2);
    EXPECT_DOUBLE_EQ(sum, 1.0);
  }
}

TEST(FeatureEncoderTest, MissingNumericEncodesToZero) {
  DataFrame frame;
  ASSERT_TRUE(
      frame.AddColumn(Column::Numeric("num", {1.0, std::nan(""), 3.0})).ok());
  FeatureEncoder encoder;
  ASSERT_TRUE(encoder.Fit(frame, {"num"}).ok());
  Matrix x = encoder.Transform(frame).ValueOrDie();
  EXPECT_DOUBLE_EQ(x(1, 0), 0.0);  // imputed to fitted mean -> standardized 0
}

TEST(FeatureEncoderTest, MissingCategoricalEncodesAllZero) {
  DataFrame frame;
  ASSERT_TRUE(frame
                  .AddColumn(Column::Categorical(
                      "cat", {0, Column::kMissingCode}, {"a", "b"}))
                  .ok());
  FeatureEncoder encoder;
  ASSERT_TRUE(encoder.Fit(frame, {"cat"}).ok());
  Matrix x = encoder.Transform(frame).ValueOrDie();
  EXPECT_DOUBLE_EQ(x(1, 0) + x(1, 1), 0.0);
}

TEST(FeatureEncoderTest, ConstantColumnDoesNotDivideByZero) {
  DataFrame frame;
  ASSERT_TRUE(frame.AddColumn(Column::Numeric("num", {5.0, 5.0, 5.0})).ok());
  FeatureEncoder encoder;
  ASSERT_TRUE(encoder.Fit(frame, {"num"}).ok());
  Matrix x = encoder.Transform(frame).ValueOrDie();
  for (size_t r = 0; r < 3; ++r) {
    EXPECT_TRUE(std::isfinite(x(r, 0)));
    EXPECT_DOUBLE_EQ(x(r, 0), 0.0);
  }
}

TEST(FeatureEncoderTest, FitErrors) {
  DataFrame frame = MakeFrame();
  FeatureEncoder encoder;
  EXPECT_FALSE(encoder.Fit(frame, {}).ok());
  EXPECT_FALSE(encoder.Fit(frame, {"nonexistent"}).ok());
  EXPECT_FALSE(encoder.Transform(frame).ok());  // unfitted
}

TEST(FeatureEncoderTest, TransformValidatesSchema) {
  DataFrame frame = MakeFrame();
  FeatureEncoder encoder;
  ASSERT_TRUE(encoder.Fit(frame, {"num"}).ok());
  DataFrame other;
  ASSERT_TRUE(other.AddColumn(Column::Categorical("num", {0}, {"x"})).ok());
  EXPECT_FALSE(encoder.Transform(other).ok());  // type changed
}

TEST(FeatureEncoderTest, DummyCategoryAddedAfterFitIsRepresentable) {
  // Dummy imputation may extend the dictionary on train before Fit; test
  // frames with the same extended dictionary encode consistently, and codes
  // beyond the fitted cardinality fall back to all-zeros.
  DataFrame train = MakeFrame();
  train.mutable_column("cat").GetOrAddCategory("dummy");
  FeatureEncoder encoder;
  ASSERT_TRUE(encoder.Fit(train, {"cat"}).ok());
  EXPECT_EQ(encoder.num_features(), 4u);
  DataFrame test = MakeFrame();
  int32_t dummy_code = test.mutable_column("cat").GetOrAddCategory("dummy");
  test.mutable_column("cat").SetCode(0, dummy_code);
  Matrix x = encoder.Transform(test).ValueOrDie();
  EXPECT_DOUBLE_EQ(x(0, 3), 1.0);
}

TEST(ExtractBinaryLabelsTest, NumericLabels) {
  DataFrame frame = MakeFrame();
  Result<std::vector<int>> labels = ExtractBinaryLabels(frame, "label");
  ASSERT_TRUE(labels.ok());
  EXPECT_EQ(*labels, (std::vector<int>{0, 1, 0, 1}));
}

TEST(ExtractBinaryLabelsTest, RejectsNonBinaryNumeric) {
  DataFrame frame;
  ASSERT_TRUE(frame.AddColumn(Column::Numeric("label", {0.0, 2.0})).ok());
  EXPECT_FALSE(ExtractBinaryLabels(frame, "label").ok());
}

TEST(ExtractBinaryLabelsTest, CategoricalWithPositiveCategory) {
  DataFrame frame;
  ASSERT_TRUE(frame
                  .AddColumn(Column::Categorical("label", {0, 1, 0},
                                                 {"bad", "good"}))
                  .ok());
  Result<std::vector<int>> labels =
      ExtractBinaryLabels(frame, "label", "good");
  ASSERT_TRUE(labels.ok());
  EXPECT_EQ(*labels, (std::vector<int>{0, 1, 0}));
  Result<std::vector<int>> inverted =
      ExtractBinaryLabels(frame, "label", "bad");
  ASSERT_TRUE(inverted.ok());
  EXPECT_EQ(*inverted, (std::vector<int>{1, 0, 1}));
}

TEST(ExtractBinaryLabelsTest, Errors) {
  DataFrame frame = MakeFrame();
  EXPECT_FALSE(ExtractBinaryLabels(frame, "nope").ok());
  DataFrame three_cat;
  ASSERT_TRUE(three_cat
                  .AddColumn(Column::Categorical("label", {0, 1, 2},
                                                 {"a", "b", "c"}))
                  .ok());
  EXPECT_FALSE(ExtractBinaryLabels(three_cat, "label").ok());
  DataFrame missing;
  ASSERT_TRUE(missing
                  .AddColumn(Column::Categorical(
                      "label", {0, Column::kMissingCode}, {"a", "b"}))
                  .ok());
  EXPECT_FALSE(ExtractBinaryLabels(missing, "label").ok());
}

}  // namespace
}  // namespace fairclean
