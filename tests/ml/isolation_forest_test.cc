#include "ml/isolation_forest.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

namespace fairclean {
namespace {

// A tight Gaussian cluster with a few far-away anomalies appended.
Matrix MakeClusterWithAnomalies(size_t n_normal, size_t n_anomalies,
                                uint64_t seed) {
  Rng rng(seed);
  Matrix x(n_normal + n_anomalies, 2);
  for (size_t i = 0; i < n_normal; ++i) {
    x(i, 0) = rng.Normal(0.0, 1.0);
    x(i, 1) = rng.Normal(0.0, 1.0);
  }
  for (size_t i = 0; i < n_anomalies; ++i) {
    size_t row = n_normal + i;
    x(row, 0) = rng.Normal(25.0, 0.5);
    x(row, 1) = rng.Normal(-25.0, 0.5);
  }
  return x;
}

TEST(AveragePathLengthTest, KnownValues) {
  EXPECT_DOUBLE_EQ(AveragePathLength(0), 0.0);
  EXPECT_DOUBLE_EQ(AveragePathLength(1), 0.0);
  EXPECT_DOUBLE_EQ(AveragePathLength(2), 1.0);
  // c(n) grows logarithmically.
  EXPECT_GT(AveragePathLength(256), AveragePathLength(64));
  EXPECT_NEAR(AveragePathLength(256),
              2.0 * (std::log(255.0) + 0.5772156649) - 2.0 * 255.0 / 256.0,
              1e-9);
}

TEST(IsolationForestTest, AnomaliesScoreHigherThanInliers) {
  Matrix x = MakeClusterWithAnomalies(500, 10, 1);
  IsolationForest forest;
  Rng rng(2);
  ASSERT_TRUE(forest.Fit(x, &rng).ok());
  std::vector<double> scores = forest.Score(x);
  double max_inlier = *std::max_element(scores.begin(), scores.begin() + 500);
  double min_anomaly =
      *std::min_element(scores.begin() + 500, scores.end());
  EXPECT_GT(min_anomaly, max_inlier);
}

TEST(IsolationForestTest, ScoresInUnitInterval) {
  Matrix x = MakeClusterWithAnomalies(300, 5, 3);
  IsolationForest forest;
  Rng rng(4);
  ASSERT_TRUE(forest.Fit(x, &rng).ok());
  for (double s : forest.Score(x)) {
    EXPECT_GT(s, 0.0);
    EXPECT_LT(s, 1.0);
  }
}

TEST(IsolationForestTest, ContaminationControlsFlagFraction) {
  Matrix x = MakeClusterWithAnomalies(1000, 0, 5);
  IsolationForestOptions options;
  options.contamination = 0.05;
  IsolationForest forest(options);
  Rng rng(6);
  ASSERT_TRUE(forest.Fit(x, &rng).ok());
  std::vector<bool> flags = forest.IsAnomaly(x);
  size_t flagged = static_cast<size_t>(
      std::count(flags.begin(), flags.end(), true));
  // ~5% of training rows must be flagged (quantile threshold).
  EXPECT_NEAR(static_cast<double>(flagged) / 1000.0, 0.05, 0.02);
}

TEST(IsolationForestTest, FlagsThePlantedAnomalies) {
  Matrix x = MakeClusterWithAnomalies(990, 10, 7);
  IsolationForestOptions options;
  options.contamination = 0.01;
  IsolationForest forest(options);
  Rng rng(8);
  ASSERT_TRUE(forest.Fit(x, &rng).ok());
  std::vector<bool> flags = forest.IsAnomaly(x);
  size_t anomalies_flagged = 0;
  for (size_t i = 990; i < 1000; ++i) {
    if (flags[i]) ++anomalies_flagged;
  }
  EXPECT_GE(anomalies_flagged, 8u);
}

TEST(IsolationForestTest, TrainingAnomaliesMatchRescoring) {
  Matrix x = MakeClusterWithAnomalies(300, 6, 11);
  IsolationForest forest;
  Rng rng(12);
  ASSERT_TRUE(forest.Fit(x, &rng).ok());
  EXPECT_EQ(forest.TrainingAnomalies(), forest.IsAnomaly(x));
}

TEST(IsolationForestTest, DeterministicGivenSeed) {
  Matrix x = MakeClusterWithAnomalies(200, 5, 9);
  IsolationForest a;
  IsolationForest b;
  Rng rng_a(10);
  Rng rng_b(10);
  ASSERT_TRUE(a.Fit(x, &rng_a).ok());
  ASSERT_TRUE(b.Fit(x, &rng_b).ok());
  std::vector<double> sa = a.Score(x);
  std::vector<double> sb = b.Score(x);
  for (size_t i = 0; i < sa.size(); ++i) {
    EXPECT_DOUBLE_EQ(sa[i], sb[i]);
  }
}

TEST(IsolationForestTest, ConstantDataDoesNotCrash) {
  Matrix x(100, 2);  // all zeros
  IsolationForest forest;
  Rng rng(11);
  ASSERT_TRUE(forest.Fit(x, &rng).ok());
  std::vector<double> scores = forest.Score(x);
  // All points identical: identical scores.
  for (double s : scores) {
    EXPECT_DOUBLE_EQ(s, scores[0]);
  }
}

TEST(IsolationForestTest, RejectsBadInput) {
  Rng rng(12);
  Matrix empty(0, 2);
  IsolationForest forest;
  EXPECT_FALSE(forest.Fit(empty, &rng).ok());
  IsolationForestOptions bad;
  bad.contamination = 0.7;
  Matrix x(10, 1);
  EXPECT_FALSE(IsolationForest(bad).Fit(x, &rng).ok());
}

}  // namespace
}  // namespace fairclean
