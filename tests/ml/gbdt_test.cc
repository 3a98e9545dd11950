#include "ml/gbdt.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataframe.h"
#include "ml/encoder.h"
#include "ml/metrics.h"
#include "obs/metrics.h"
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

// Reference boosting loop: GradientBoostedTrees::Fit with the margins
// updated by walking every training row through PredictOne, as Fit did
// before it read sampled rows' leaves off the tree fit. Same rng draws,
// same presort, a fresh workspace per tree.
double ReferenceSigmoid(double z) {
  if (z >= 0.0) {
    double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  double e = std::exp(z);
  return e / (1.0 + e);
}

std::vector<RegressionTree> ReferenceBoost(const Matrix& x,
                                           const std::vector<int>& y,
                                           const GbdtOptions& options,
                                           Rng* rng) {
  size_t n = x.rows();
  double positives = 0.0;
  for (int label : y) positives += label;
  double rate = std::min(1.0 - 1e-6, std::max(1e-6, positives / n));
  double base = std::log(rate / (1.0 - rate));
  RegressionTreeOptions tree_options = options.tree;
  tree_options.max_depth = options.max_depth;
  PresortedFeatures presorted = PresortedFeatures::Compute(x);
  std::vector<double> margin(n, base);
  std::vector<double> grad(n);
  std::vector<double> hess(n);
  std::vector<RegressionTree> trees;
  for (int round = 0; round < options.num_rounds; ++round) {
    for (size_t i = 0; i < n; ++i) {
      double p = ReferenceSigmoid(margin[i]);
      grad[i] = p - static_cast<double>(y[i]);
      hess[i] = std::max(1e-10, p * (1.0 - p));
    }
    std::vector<size_t> sample;
    if (options.subsample < 1.0) {
      size_t k = std::max<size_t>(
          1, static_cast<size_t>(options.subsample * static_cast<double>(n)));
      sample = rng->SampleWithoutReplacement(n, k);
    } else {
      sample.resize(n);
      for (size_t i = 0; i < n; ++i) sample[i] = i;
    }
    RegressionTree tree;
    EXPECT_TRUE(tree.FitPresorted(x, grad, hess, sample, presorted,
                                  tree_options)
                    .ok());
    for (size_t i = 0; i < n; ++i) {
      margin[i] += options.learning_rate * tree.PredictOne(x.Row(i));
    }
    trees.push_back(std::move(tree));
  }
  return trees;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

void ExpectSameTrees(const std::vector<RegressionTree>& expected,
                     const std::vector<RegressionTree>& actual) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t t = 0; t < expected.size(); ++t) {
    const std::vector<RegressionTree::Node>& want = expected[t].nodes();
    const std::vector<RegressionTree::Node>& got = actual[t].nodes();
    ASSERT_EQ(got.size(), want.size()) << "tree " << t;
    for (size_t i = 0; i < want.size(); ++i) {
      SCOPED_TRACE("tree " + std::to_string(t) + " node " + std::to_string(i));
      EXPECT_EQ(got[i].is_leaf, want[i].is_leaf);
      EXPECT_EQ(got[i].feature, want[i].feature);
      EXPECT_EQ(got[i].left, want[i].left);
      EXPECT_EQ(got[i].right, want[i].right);
      EXPECT_TRUE(SameBits(got[i].threshold, want[i].threshold));
      EXPECT_TRUE(SameBits(got[i].value, want[i].value));
    }
  }
}

TEST(GbdtTest, LeafMarginsMatchPredictOneReference) {
  test::BlobData data = test::MakeBlobs(260, 4, 5.0, 21);
  // A one-hot-like column gives ties and long runs.
  for (size_t i = 0; i < data.x.rows(); ++i) {
    data.x(i, 3) = data.x(i, 3) > 0.3 ? 1.0 : 0.0;
  }
  for (double subsample : {0.8, 1.0}) {
    for (int depth = 0; depth <= 6; ++depth) {
      SCOPED_TRACE("subsample " + std::to_string(subsample) + " depth " +
                   std::to_string(depth));
      GbdtOptions options;
      options.num_rounds = 20;
      options.max_depth = depth;
      options.subsample = subsample;
      // As the margins grow the hessians shrink, so after a few rounds no
      // child can reach this weight and the tree stays a single leaf.
      options.tree.min_child_weight = 12.0;
      GradientBoostedTrees model(options);
      Rng fit_rng(31);
      ASSERT_TRUE(model.Fit(data.x, data.y, &fit_rng).ok());
      Rng reference_rng(31);
      std::vector<RegressionTree> expected =
          ReferenceBoost(data.x, data.y, options, &reference_rng);
      ExpectSameTrees(expected, model.trees());
      if (depth > 0) {
        // Both kinds of round occur: split trees and split-less ones.
        size_t leaf_only = 0;
        for (const RegressionTree& tree : model.trees()) {
          leaf_only += tree.num_nodes() == 1;
        }
        EXPECT_GT(leaf_only, 0u);
        EXPECT_LT(leaf_only, model.trees().size());
      }
    }
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

// On a one-hot encoded frame most columns hold only 0 and 1, and the split
// search bounds those whose 1s are the shorter run before streaming their
// 0s. Both counters move, once per fit, and only some column-levels need
// the exact run.
TEST(GbdtTest, SplitBoundCountersMoveOnEncodedFrame) {
  Rng rng(16);
  size_t n = 400;
  std::vector<double> age(n);
  std::vector<int32_t> job(n);
  std::vector<int32_t> region(n);
  std::vector<int> y(n);
  for (size_t i = 0; i < n; ++i) {
    age[i] = rng.Normal(40.0, 10.0);
    double u = rng.Uniform();
    job[i] = u < 0.5 ? 0 : (u < 0.7 ? 1 : (u < 0.85 ? 2 : (u < 0.95 ? 3 : 4)));
    region[i] = static_cast<int32_t>(rng.UniformInt(0, 2));
    y[i] = rng.Bernoulli(0.2 + 0.5 * (job[i] == 2) + 0.2 * (age[i] > 45))
               ? 1
               : 0;
  }
  DataFrame frame;
  ASSERT_TRUE(frame.AddColumn(Column::Numeric("age", age)).ok());
  ASSERT_TRUE(frame
                  .AddColumn(Column::Categorical(
                      "job", job, {"a", "b", "c", "d", "e"}))
                  .ok());
  ASSERT_TRUE(frame
                  .AddColumn(Column::Categorical("region", region,
                                                 {"north", "south", "west"}))
                  .ok());
  FeatureEncoder encoder;
  ASSERT_TRUE(encoder.Fit(frame, {"age", "job", "region"}).ok());
  Result<Matrix> x = encoder.Transform(frame);
  ASSERT_TRUE(x.ok());

  obs::Counter* bounded =
      obs::MetricsRegistry::Global().GetCounter("ml.gbdt.split.bounded");
  obs::Counter* verified =
      obs::MetricsRegistry::Global().GetCounter("ml.gbdt.split.verified");
  uint64_t bounded_before = bounded->value();
  uint64_t verified_before = verified->value();
  GradientBoostedTrees model;
  Rng fit_rng(17);
  ASSERT_TRUE(model.Fit(*x, y, &fit_rng).ok());
  uint64_t bounded_delta = bounded->value() - bounded_before;
  uint64_t verified_delta = verified->value() - verified_before;
  EXPECT_GT(bounded_delta, 0u);
  EXPECT_GT(verified_delta, 0u);
  EXPECT_LT(verified_delta, bounded_delta);
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
