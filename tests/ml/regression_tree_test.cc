#include "ml/regression_tree.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "tests/ml/test_data.h"

namespace fairclean {
namespace {

std::vector<size_t> AllIndices(size_t n) {
  std::vector<size_t> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = i;
  return out;
}

TEST(RegressionTreeTest, DepthZeroIsSingleLeaf) {
  Matrix x(4, 1);
  std::vector<double> grad = {1.0, 1.0, -1.0, -1.0};
  std::vector<double> hess = {1.0, 1.0, 1.0, 1.0};
  RegressionTreeOptions options;
  options.max_depth = 0;
  RegressionTree tree;
  ASSERT_TRUE(tree.Fit(x, grad, hess, AllIndices(4), options).ok());
  EXPECT_EQ(tree.num_nodes(), 1u);
  EXPECT_EQ(tree.num_leaves(), 1u);
  // Leaf weight = -sum(g) / (sum(h) + lambda) = 0 / 5.
  double row = 0.0;
  EXPECT_DOUBLE_EQ(tree.PredictOne(&row), 0.0);
}

TEST(RegressionTreeTest, SplitsOnInformativeFeature) {
  // Gradients perfectly separated by x < 0.5.
  Matrix x(6, 2);
  std::vector<double> grad(6);
  std::vector<double> hess(6, 1.0);
  for (size_t i = 0; i < 6; ++i) {
    x(i, 0) = i < 3 ? 0.0 : 1.0;
    x(i, 1) = static_cast<double>(i % 2);  // uninformative
    grad[i] = i < 3 ? 2.0 : -2.0;
  }
  RegressionTreeOptions options;
  options.max_depth = 1;
  options.lambda = 0.0;
  options.min_child_weight = 0.0;
  RegressionTree tree;
  ASSERT_TRUE(tree.Fit(x, grad, hess, AllIndices(6), options).ok());
  EXPECT_EQ(tree.num_leaves(), 2u);
  double left_row[2] = {0.0, 0.0};
  double right_row[2] = {1.0, 0.0};
  // Leaf weights: -G/H = -6/3 = -2 and +2.
  EXPECT_DOUBLE_EQ(tree.PredictOne(left_row), -2.0);
  EXPECT_DOUBLE_EQ(tree.PredictOne(right_row), 2.0);
}

TEST(RegressionTreeTest, ConstantFeaturesYieldLeaf) {
  Matrix x(5, 2);  // all zeros
  std::vector<double> grad = {1, -1, 1, -1, 1};
  std::vector<double> hess(5, 1.0);
  RegressionTreeOptions options;
  RegressionTree tree;
  ASSERT_TRUE(tree.Fit(x, grad, hess, AllIndices(5), options).ok());
  EXPECT_EQ(tree.num_leaves(), 1u);
}

TEST(RegressionTreeTest, RespectsMaxDepth) {
  Rng rng(1);
  Matrix x(200, 3);
  std::vector<double> grad(200);
  std::vector<double> hess(200, 1.0);
  for (size_t i = 0; i < 200; ++i) {
    for (size_t d = 0; d < 3; ++d) x(i, d) = rng.Normal(0, 1);
    grad[i] = rng.Normal(0, 1);
  }
  RegressionTreeOptions options;
  options.max_depth = 2;
  options.min_child_weight = 0.0;
  options.lambda = 0.0;
  RegressionTree tree;
  ASSERT_TRUE(tree.Fit(x, grad, hess, AllIndices(200), options).ok());
  EXPECT_LE(tree.num_leaves(), 4u);  // 2^depth
}

TEST(RegressionTreeTest, MinChildWeightBlocksSplit) {
  Matrix x(4, 1);
  for (size_t i = 0; i < 4; ++i) x(i, 0) = static_cast<double>(i);
  std::vector<double> grad = {2, 2, -2, -2};
  std::vector<double> hess(4, 1.0);
  RegressionTreeOptions options;
  options.max_depth = 3;
  options.min_child_weight = 10.0;  // no child can reach hessian sum 10
  RegressionTree tree;
  ASSERT_TRUE(tree.Fit(x, grad, hess, AllIndices(4), options).ok());
  EXPECT_EQ(tree.num_leaves(), 1u);
}

TEST(RegressionTreeTest, GammaBlocksLowGainSplits) {
  Matrix x(4, 1);
  for (size_t i = 0; i < 4; ++i) x(i, 0) = static_cast<double>(i);
  std::vector<double> grad = {0.1, -0.1, 0.1, -0.1};
  std::vector<double> hess(4, 1.0);
  RegressionTreeOptions options;
  options.max_depth = 3;
  options.gamma = 100.0;
  RegressionTree tree;
  ASSERT_TRUE(tree.Fit(x, grad, hess, AllIndices(4), options).ok());
  EXPECT_EQ(tree.num_leaves(), 1u);
}

TEST(RegressionTreeTest, FitsOnSubsetOnly) {
  Matrix x(4, 1);
  x(0, 0) = 0.0;
  x(1, 0) = 1.0;
  x(2, 0) = 0.0;
  x(3, 0) = 1.0;
  std::vector<double> grad = {5.0, -5.0, 100.0, -100.0};
  std::vector<double> hess(4, 1.0);
  RegressionTreeOptions options;
  options.max_depth = 1;
  options.lambda = 0.0;
  options.min_child_weight = 0.0;
  RegressionTree tree;
  // Only rows 0 and 1 participate; large gradients of 2,3 are ignored.
  ASSERT_TRUE(tree.Fit(x, grad, hess, {0, 1}, options).ok());
  double left_row = 0.0;
  EXPECT_DOUBLE_EQ(tree.PredictOne(&left_row), -5.0);
}

TEST(RegressionTreeTest, FilteredPresortMatchesGlobalPresort) {
  // Fitting on a subsample must give bit-identical trees whether the scan
  // skips non-members of the global presort or walks a sample-only one.
  Rng rng(9);
  Matrix x(120, 3);
  std::vector<double> grad(120);
  std::vector<double> hess(120, 1.0);
  for (size_t i = 0; i < 120; ++i) {
    for (size_t d = 0; d < 3; ++d) x(i, d) = rng.Normal(0, 1);
    grad[i] = rng.Normal(0, 1);
  }
  std::vector<size_t> sample;
  std::vector<char> member(120, 0);
  for (size_t i = 0; i < 120; i += 2) {
    sample.push_back(i);
    member[i] = 1;
  }
  PresortedFeatures full = PresortedFeatures::Compute(x);
  PresortedFeatures filtered = test::SampleOnlyPresort(full, member);
  RegressionTreeOptions options;
  options.max_depth = 4;
  RegressionTree from_full;
  RegressionTree from_filtered;
  ASSERT_TRUE(
      from_full.FitPresorted(x, grad, hess, sample, full, options).ok());
  ASSERT_TRUE(
      from_filtered.FitPresorted(x, grad, hess, sample, filtered, options)
          .ok());
  ASSERT_EQ(from_full.num_nodes(), from_filtered.num_nodes());
  EXPECT_EQ(from_full.num_leaves(), from_filtered.num_leaves());
  Rng probe_rng(10);
  for (size_t i = 0; i < 50; ++i) {
    double row[3] = {probe_rng.Normal(0, 1), probe_rng.Normal(0, 1),
                     probe_rng.Normal(0, 1)};
    EXPECT_EQ(from_full.PredictOne(row), from_filtered.PredictOne(row));
  }
}

TEST(RegressionTreeTest, WorkspaceReuseMatchesFreshWorkspace) {
  Rng rng(12);
  Matrix x(80, 2);
  std::vector<double> grad(80);
  std::vector<double> hess(80, 1.0);
  for (size_t i = 0; i < 80; ++i) {
    for (size_t d = 0; d < 2; ++d) x(i, d) = rng.Normal(0, 1);
    grad[i] = rng.Normal(0, 1);
  }
  PresortedFeatures presorted = PresortedFeatures::Compute(x);
  RegressionTreeOptions options;
  options.max_depth = 3;
  TreeFitWorkspace workspace;
  RegressionTree first;
  ASSERT_TRUE(first
                  .FitPresorted(x, grad, hess, AllIndices(80), presorted,
                                options, &workspace)
                  .ok());
  // Refit with the dirty workspace and different gradients; results must
  // match a fit with a fresh workspace (the workspace carries no state
  // between fits, only capacity).
  for (size_t i = 0; i < 80; ++i) grad[i] = -grad[i] + 0.25;
  RegressionTree reused;
  RegressionTree fresh;
  ASSERT_TRUE(reused
                  .FitPresorted(x, grad, hess, AllIndices(80), presorted,
                                options, &workspace)
                  .ok());
  ASSERT_TRUE(
      fresh.FitPresorted(x, grad, hess, AllIndices(80), presorted, options)
          .ok());
  ASSERT_EQ(reused.num_nodes(), fresh.num_nodes());
  Rng probe_rng(13);
  for (size_t i = 0; i < 50; ++i) {
    double row[2] = {probe_rng.Normal(0, 1), probe_rng.Normal(0, 1)};
    EXPECT_EQ(reused.PredictOne(row), fresh.PredictOne(row));
  }
}

TEST(RegressionTreeTest, RejectsBadInput) {
  Matrix x(2, 1);
  RegressionTree tree;
  RegressionTreeOptions options;
  EXPECT_FALSE(tree.Fit(x, {1.0}, {1.0, 1.0}, {0}, options).ok());
  EXPECT_FALSE(tree.Fit(x, {1.0, 1.0}, {1.0, 1.0}, {}, options).ok());
}

}  // namespace
}  // namespace fairclean
