#include "ml/gbdt.h"

#include <gtest/gtest.h>

#include "ml/metrics.h"
#include "tests/ml/test_data.h"

namespace fairclean {
namespace {

TEST(GbdtTest, LearnsSeparableBlobs) {
  test::BlobData train = test::MakeBlobs(400, 3, 4.0, 1);
  test::BlobData test = test::MakeBlobs(150, 3, 4.0, 2);
  GradientBoostedTrees model;
  Rng rng(3);
  ASSERT_TRUE(model.Fit(train.x, train.y, &rng).ok());
  EXPECT_GT(AccuracyScore(test.y, model.Predict(test.x)), 0.88);
}

TEST(GbdtTest, LearnsNonLinearXor) {
  // XOR pattern that defeats a linear model but not boosted trees.
  Rng data_rng(4);
  Matrix x(400, 2);
  std::vector<int> y(400);
  for (size_t i = 0; i < 400; ++i) {
    double a = data_rng.Normal(0, 1);
    double b = data_rng.Normal(0, 1);
    x(i, 0) = a;
    x(i, 1) = b;
    y[i] = (a > 0) != (b > 0) ? 1 : 0;
  }
  GbdtOptions options;
  options.num_rounds = 60;
  options.max_depth = 3;
  GradientBoostedTrees model(options);
  Rng rng(5);
  ASSERT_TRUE(model.Fit(x, y, &rng).ok());
  EXPECT_GT(AccuracyScore(y, model.Predict(x)), 0.9);
}

TEST(GbdtTest, TrainingLossDecreasesMonotonically) {
  test::BlobData data = test::MakeBlobs(300, 2, 2.0, 6);
  GbdtOptions options;
  options.subsample = 1.0;  // deterministic full-batch boosting
  GradientBoostedTrees model(options);
  Rng rng(7);
  ASSERT_TRUE(model.Fit(data.x, data.y, &rng).ok());
  std::vector<double> curve = model.TrainingLossCurve(data.x, data.y);
  ASSERT_EQ(curve.size(), static_cast<size_t>(options.num_rounds));
  for (size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LE(curve[i], curve[i - 1] + 1e-9);
  }
}

TEST(GbdtTest, NumTreesMatchesRounds) {
  test::BlobData data = test::MakeBlobs(100, 2, 3.0, 8);
  GbdtOptions options;
  options.num_rounds = 17;
  GradientBoostedTrees model(options);
  Rng rng(9);
  ASSERT_TRUE(model.Fit(data.x, data.y, &rng).ok());
  EXPECT_EQ(model.num_trees(), 17u);
}

TEST(GbdtTest, ProbabilitiesInUnitInterval) {
  test::BlobData data = test::MakeBlobs(200, 2, 1.0, 10);
  GradientBoostedTrees model;
  Rng rng(11);
  ASSERT_TRUE(model.Fit(data.x, data.y, &rng).ok());
  for (double p : model.PredictProba(data.x)) {
    EXPECT_GT(p, 0.0);
    EXPECT_LT(p, 1.0);
  }
}

TEST(GbdtTest, DeterministicGivenSeed) {
  test::BlobData data = test::MakeBlobs(200, 2, 2.0, 12);
  GradientBoostedTrees a;
  GradientBoostedTrees b;
  Rng rng_a(99);
  Rng rng_b(99);
  ASSERT_TRUE(a.Fit(data.x, data.y, &rng_a).ok());
  ASSERT_TRUE(b.Fit(data.x, data.y, &rng_b).ok());
  std::vector<double> pa = a.PredictProba(data.x);
  std::vector<double> pb = b.PredictProba(data.x);
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_DOUBLE_EQ(pa[i], pb[i]);
  }
}

TEST(GbdtTest, SingleClassTrainingPredictsThatClass) {
  Matrix x(50, 1);
  Rng noise(13);
  for (size_t i = 0; i < 50; ++i) x(i, 0) = noise.Normal(0, 1);
  std::vector<int> y(50, 0);
  GradientBoostedTrees model;
  Rng rng(14);
  ASSERT_TRUE(model.Fit(x, y, &rng).ok());
  for (int prediction : model.Predict(x)) {
    EXPECT_EQ(prediction, 0);
  }
}

TEST(GbdtTest, RejectsBadOptions) {
  Matrix x(2, 1);
  std::vector<int> y = {0, 1};
  Rng rng(15);
  GbdtOptions bad_rounds;
  bad_rounds.num_rounds = 0;
  EXPECT_FALSE(GradientBoostedTrees(bad_rounds).Fit(x, y, &rng).ok());
  GbdtOptions bad_subsample;
  bad_subsample.subsample = 0.0;
  EXPECT_FALSE(GradientBoostedTrees(bad_subsample).Fit(x, y, &rng).ok());
  GradientBoostedTrees model;
  EXPECT_FALSE(model.Fit(x, {1}, &rng).ok());
}

}  // namespace
}  // namespace fairclean
