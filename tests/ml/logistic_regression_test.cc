#include "ml/logistic_regression.h"

#include <cmath>

#include <gtest/gtest.h>

#include "ml/metrics.h"
#include "tests/ml/test_data.h"

namespace fairclean {
namespace {

TEST(LogisticRegressionTest, LearnsSeparableBlobs) {
  test::BlobData data = test::MakeBlobs(400, 3, 4.0, 1);
  LogisticRegression model;
  Rng rng(2);
  ASSERT_TRUE(model.Fit(data.x, data.y, &rng).ok());
  double accuracy = AccuracyScore(data.y, model.Predict(data.x));
  EXPECT_GT(accuracy, 0.9);
}

TEST(LogisticRegressionTest, CoefficientSignMatchesSeparation) {
  test::BlobData data = test::MakeBlobs(400, 3, 4.0, 3);
  LogisticRegression model;
  Rng rng(4);
  ASSERT_TRUE(model.Fit(data.x, data.y, &rng).ok());
  ASSERT_EQ(model.coefficients().size(), 3u);
  EXPECT_GT(model.coefficients()[0], 0.5);  // axis 0 separates the classes
  EXPECT_LT(std::abs(model.coefficients()[1]), 0.5);
}

TEST(LogisticRegressionTest, ProbabilitiesInUnitInterval) {
  test::BlobData data = test::MakeBlobs(200, 2, 2.0, 5);
  LogisticRegression model;
  Rng rng(6);
  ASSERT_TRUE(model.Fit(data.x, data.y, &rng).ok());
  for (double p : model.PredictProba(data.x)) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(LogisticRegressionTest, StrongerRegularizationShrinksWeights) {
  test::BlobData data = test::MakeBlobs(300, 3, 4.0, 7);
  LogisticRegressionOptions weak;
  weak.c = 100.0;
  LogisticRegressionOptions strong;
  strong.c = 0.01;
  LogisticRegression weak_model(weak);
  LogisticRegression strong_model(strong);
  Rng rng(8);
  ASSERT_TRUE(weak_model.Fit(data.x, data.y, &rng).ok());
  ASSERT_TRUE(strong_model.Fit(data.x, data.y, &rng).ok());
  double weak_norm = 0.0;
  double strong_norm = 0.0;
  for (double w : weak_model.coefficients()) weak_norm += w * w;
  for (double w : strong_model.coefficients()) strong_norm += w * w;
  EXPECT_GT(weak_norm, strong_norm);
}

TEST(LogisticRegressionTest, InterceptCapturesBaseRate) {
  // All labels positive except a few: intercept must be strongly positive.
  Matrix x(100, 1);
  std::vector<int> y(100, 1);
  Rng noise(9);
  for (size_t i = 0; i < 100; ++i) x(i, 0) = noise.Normal(0.0, 1.0);
  for (size_t i = 0; i < 5; ++i) y[i] = 0;
  LogisticRegression model;
  Rng rng(10);
  ASSERT_TRUE(model.Fit(x, y, &rng).ok());
  EXPECT_GT(model.intercept(), 1.0);
}

TEST(LogisticRegressionTest, DeterministicFit) {
  test::BlobData data = test::MakeBlobs(200, 2, 3.0, 11);
  LogisticRegression a;
  LogisticRegression b;
  Rng rng_a(1);
  Rng rng_b(2);  // rng is unused by IRLS; fits must still agree
  ASSERT_TRUE(a.Fit(data.x, data.y, &rng_a).ok());
  ASSERT_TRUE(b.Fit(data.x, data.y, &rng_b).ok());
  for (size_t i = 0; i < a.coefficients().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.coefficients()[i], b.coefficients()[i]);
  }
}

TEST(LogisticRegressionTest, RejectsBadInput) {
  Matrix x(2, 1);
  LogisticRegression model;
  Rng rng(1);
  EXPECT_FALSE(model.Fit(x, {1}, &rng).ok());  // size mismatch
  Matrix empty(0, 1);
  EXPECT_FALSE(model.Fit(empty, {}, &rng).ok());
  LogisticRegressionOptions bad;
  bad.c = 0.0;
  LogisticRegression bad_model(bad);
  EXPECT_FALSE(bad_model.Fit(x, {0, 1}, &rng).ok());
}

TEST(LogisticRegressionTest, SingleClassTrainingStillFits) {
  // Degenerate but must not crash or diverge: regularization keeps the
  // problem well-posed.
  Matrix x(50, 2);
  Rng noise(12);
  for (size_t i = 0; i < 50; ++i) {
    x(i, 0) = noise.Normal(0.0, 1.0);
    x(i, 1) = noise.Normal(0.0, 1.0);
  }
  std::vector<int> y(50, 1);
  LogisticRegression model;
  Rng rng(13);
  ASSERT_TRUE(model.Fit(x, y, &rng).ok());
  std::vector<double> proba = model.PredictProba(x);
  for (double p : proba) EXPECT_GT(p, 0.5);
}

TEST(LogisticRegressionTest, CloneIsUntrainedWithSameOptions) {
  LogisticRegressionOptions options;
  options.c = 2.5;
  LogisticRegression model(options);
  std::unique_ptr<Classifier> clone = model.Clone();
  EXPECT_EQ(clone->name(), "log-reg");
  test::BlobData data = test::MakeBlobs(100, 2, 3.0, 14);
  Rng rng(15);
  EXPECT_TRUE(clone->Fit(data.x, data.y, &rng).ok());
}

// FitRows over row indices must equal Fit over the copied rows, bit for
// bit, including an index order that is not ascending.
TEST(LogisticRegressionTest, FitRowsMatchesFitOnCopiedRows) {
  test::BlobData data = test::MakeBlobs(120, 3, 1.5, 16);
  std::vector<size_t> rows;
  for (size_t i = 119; i >= 30; i -= 3) rows.push_back(i);
  std::vector<int> labels;
  for (size_t row : rows) labels.push_back(data.y[row]);
  LogisticRegression copied;
  Rng rng(17);
  ASSERT_TRUE(copied.Fit(data.x.TakeRows(rows), labels, &rng).ok());
  LogisticRegression indexed;
  ASSERT_TRUE(indexed.FitRows(data.x, rows, data.y).ok());
  EXPECT_EQ(indexed.coefficients(), copied.coefficients());
  EXPECT_EQ(indexed.intercept(), copied.intercept());
  EXPECT_FALSE(indexed.FitRows(data.x, {0, 120}, data.y).ok());
}

}  // namespace
}  // namespace fairclean
