// Oracle test for the node-partitioned split search (DESIGN.md §8).
//
// ReferenceFitPresorted is the level scan RegressionTree::FitPresorted ran
// before the partitioned kernel: every level walks each feature's whole
// presort in order, skips rows outside the frontier through a per-row node
// lookup, and evaluates a candidate at every value change. The kernel skips
// work that can never produce a candidate, so it must build the very same
// tree: every node's structure, feature, threshold and leaf value are
// compared bit for bit.
//
// Registered at FAIRCLEAN_THREADS 1 and 4 (tests/CMakeLists.txt), since the
// kernel's column fan-out is sized from the shared fold pool.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "ml/gbdt.h"
#include "ml/regression_tree.h"
#include "tests/ml/test_data.h"

namespace fairclean {
namespace {

using Node = RegressionTree::Node;

double ReferenceLeafWeight(double g, double h, double lambda) {
  return -g / (h + lambda);
}

double ReferenceScoreHalf(double g, double h, double lambda) {
  return g * g / (h + lambda);
}

std::vector<Node> ReferenceFitPresorted(const Matrix& x,
                                        const std::vector<double>& grad,
                                        const std::vector<double>& hess,
                                        const std::vector<size_t>& sample,
                                        const PresortedFeatures& presorted,
                                        const RegressionTreeOptions& options) {
  struct Candidate {
    double gain = 0.0;
    size_t feature = 0;
    double threshold = 0.0;
  };
  struct Scratch {
    double g_left = 0.0;
    double h_left = 0.0;
    double last_value = 0.0;
    size_t count_left = 0;
  };
  const double lambda = options.lambda;
  std::vector<Node> nodes(1);
  double g_root = 0.0;
  double h_root = 0.0;
  for (size_t index : sample) {
    g_root += grad[index];
    h_root += hess[index];
  }
  nodes[0].value = ReferenceLeafWeight(g_root, h_root, lambda);
  std::vector<int> node_of(x.rows(), -1);
  for (size_t index : sample) node_of[index] = 0;
  std::vector<double> g_total = {g_root};
  std::vector<double> h_total = {h_root};
  std::vector<int> frontier = {0};

  for (int depth = 0; depth < options.max_depth && !frontier.empty();
       ++depth) {
    size_t num_nodes = nodes.size();
    std::vector<char> in_frontier(num_nodes, 0);
    for (int node : frontier) in_frontier[static_cast<size_t>(node)] = 1;
    std::vector<Candidate> best(num_nodes);
    for (size_t f = 0; f < x.cols(); ++f) {
      std::vector<Scratch> scratch(num_nodes);
      std::vector<Candidate> best_f(num_nodes);
      const std::vector<uint32_t>& order = presorted.order[f];
      bool has_values = f < presorted.values.size() &&
                        presorted.values[f].size() == order.size();
      for (size_t pos = 0; pos < order.size(); ++pos) {
        size_t index = order[pos];
        int node = node_of[index];
        if (node < 0 || !in_frontier[static_cast<size_t>(node)]) continue;
        size_t id = static_cast<size_t>(node);
        double value = has_values ? presorted.values[f][pos] : x(index, f);
        Scratch& s = scratch[id];
        if (s.count_left > 0 && value != s.last_value) {
          double g_right = g_total[id] - s.g_left;
          double h_right = h_total[id] - s.h_left;
          if (s.h_left >= options.min_child_weight &&
              h_right >= options.min_child_weight) {
            double gain =
                0.5 * (ReferenceScoreHalf(s.g_left, s.h_left, lambda) +
                       ReferenceScoreHalf(g_right, h_right, lambda) -
                       ReferenceScoreHalf(g_total[id], h_total[id], lambda)) -
                options.gamma;
            if (gain > best_f[id].gain) {
              best_f[id] = {gain, f, 0.5 * (s.last_value + value)};
            }
          }
        }
        s.g_left += grad[index];
        s.h_left += hess[index];
        s.last_value = value;
        ++s.count_left;
      }
      for (int node : frontier) {
        size_t id = static_cast<size_t>(node);
        if (best_f[id].gain > best[id].gain) best[id] = best_f[id];
      }
    }
    std::vector<int> next_frontier;
    for (int node : frontier) {
      size_t id = static_cast<size_t>(node);
      if (best[id].gain <= 0.0) continue;
      int left = static_cast<int>(nodes.size());
      int right = left + 1;
      nodes.resize(nodes.size() + 2);
      nodes[id].is_leaf = false;
      nodes[id].feature = best[id].feature;
      nodes[id].threshold = best[id].threshold;
      nodes[id].left = left;
      nodes[id].right = right;
      next_frontier.push_back(left);
      next_frontier.push_back(right);
    }
    if (next_frontier.empty()) break;
    g_total.resize(nodes.size(), 0.0);
    h_total.resize(nodes.size(), 0.0);
    for (size_t index : sample) {
      const Node& parent = nodes[static_cast<size_t>(node_of[index])];
      if (parent.is_leaf) continue;
      int child = x(index, parent.feature) < parent.threshold ? parent.left
                                                              : parent.right;
      node_of[index] = child;
      g_total[static_cast<size_t>(child)] += grad[index];
      h_total[static_cast<size_t>(child)] += hess[index];
    }
    for (int child : next_frontier) {
      size_t id = static_cast<size_t>(child);
      nodes[id].value = ReferenceLeafWeight(g_total[id], h_total[id], lambda);
    }
    frontier.swap(next_frontier);
  }
  return nodes;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

void ExpectSameTree(const std::vector<Node>& expected,
                    const std::vector<Node>& actual) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE("node " + std::to_string(i));
    EXPECT_EQ(actual[i].is_leaf, expected[i].is_leaf);
    EXPECT_EQ(actual[i].left, expected[i].left);
    EXPECT_EQ(actual[i].right, expected[i].right);
    EXPECT_TRUE(SameBits(actual[i].value, expected[i].value))
        << actual[i].value << " vs " << expected[i].value;
    if (expected[i].is_leaf) continue;
    EXPECT_EQ(std::memcmp(&actual[i].feature, &expected[i].feature,
                          sizeof(size_t)),
              0);
    EXPECT_TRUE(SameBits(actual[i].threshold, expected[i].threshold))
        << actual[i].threshold << " vs " << expected[i].threshold;
  }
}

// Columns chosen to hit every skip of the kernel: continuous values, a
// one-hot block (two runs per column), a constant column (one run), heavy
// ties (five values), signed zeros that compare equal, and infinities.
struct Problem {
  Matrix x;
  std::vector<double> grad;
  std::vector<double> hess;
};

Problem MakeProblem(size_t n, uint64_t seed) {
  Rng rng(seed);
  Problem p;
  p.x = Matrix(n, 9);
  p.grad.resize(n);
  p.hess.resize(n);
  const double inf = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < n; ++i) {
    p.x(i, 0) = rng.Normal(0.0, 1.0);
    int hot = static_cast<int>(rng.UniformInt(0, 2));
    for (int k = 0; k < 3; ++k) p.x(i, 1 + k) = hot == k ? 1.0 : 0.0;
    p.x(i, 4) = 7.0;
    p.x(i, 5) = static_cast<double>(rng.UniformInt(0, 4));
    int zero = static_cast<int>(rng.UniformInt(0, 2));
    p.x(i, 6) = zero == 0 ? -0.0 : (zero == 1 ? 0.0 : 1.0);
    int tail = static_cast<int>(rng.UniformInt(0, 9));
    p.x(i, 7) = tail == 0 ? -inf : (tail == 9 ? inf : rng.Normal(0.0, 1.0));
    p.x(i, 8) = std::round(rng.Normal(0.0, 2.0)) / 4.0;
    // Logistic-style statistics: the label decides the gradient's sign.
    double prob = rng.Uniform(0.05, 0.95);
    int label = rng.Bernoulli(0.3 + 0.4 * (p.x(i, 1) + p.x(i, 0) > 0.5));
    p.grad[i] = prob - label;
    p.hess[i] = prob * (1.0 - prob);
  }
  return p;
}

enum class PresortKind { kSampleExact, kFullWithNonMembers, kValueless };

PresortedFeatures MakePresort(const Matrix& x,
                              const std::vector<size_t>& sample,
                              PresortKind kind) {
  PresortedFeatures full = PresortedFeatures::Compute(x);
  if (kind == PresortKind::kFullWithNonMembers) return full;
  if (kind == PresortKind::kValueless) {
    full.values.clear();
    return full;
  }
  std::vector<char> member(x.rows(), 0);
  for (size_t index : sample) member[index] = 1;
  return test::SampleOnlyPresort(full, member);
}

struct OptionCase {
  const char* name;
  double lambda;
  double gamma;
  double min_child_weight;
};

TEST(SplitSearchOracleTest, PartitionedKernelMatchesLevelScan) {
  const OptionCase option_cases[] = {
      {"defaults", 1.0, 0.0, 1.0},
      {"loose", 0.0, 0.0, 0.0},
      {"gamma", 1.0, 0.05, 0.5},
      {"min_child_weight_blocks_all", 1.0, 0.0, 1e9},
  };
  TreeFitWorkspace workspace;  // shared, so stale state would show
  for (uint64_t seed : {1u, 2u}) {
    Problem p = MakeProblem(seed == 1 ? 300 : 57, seed);
    Rng sample_rng(seed + 100);
    std::vector<size_t> sample = sample_rng.SampleWithoutReplacement(
        p.x.rows(), p.x.rows() * 7 / 10);
    for (PresortKind kind :
         {PresortKind::kSampleExact, PresortKind::kFullWithNonMembers,
          PresortKind::kValueless}) {
      PresortedFeatures presorted = MakePresort(p.x, sample, kind);
      for (const OptionCase& option_case : option_cases) {
        for (int depth = 0; depth <= 6; ++depth) {
          SCOPED_TRACE("seed " + std::to_string(seed) + " presort " +
                       std::to_string(static_cast<int>(kind)) + " " +
                       option_case.name + " depth " + std::to_string(depth));
          RegressionTreeOptions options;
          options.max_depth = depth;
          options.lambda = option_case.lambda;
          options.gamma = option_case.gamma;
          options.min_child_weight = option_case.min_child_weight;
          std::vector<Node> expected = ReferenceFitPresorted(
              p.x, p.grad, p.hess, sample, presorted, options);
          RegressionTree tree;
          ASSERT_TRUE(tree.FitPresorted(p.x, p.grad, p.hess, sample,
                                        presorted, options, &workspace)
                          .ok());
          ExpectSameTree(expected, tree.nodes());
          if (option_case.min_child_weight > 1e8) {
            EXPECT_EQ(tree.num_nodes(), 1u);
          }
        }
      }
    }
  }
}

// One-hot style columns, which Compute() marks two-valued so the fit sums
// their low runs per node instead of partitioning them: a {0, 1} one-hot
// block, {-0.0, +0.0, 1}, {a < 0, ±0}, {a < 0 < b}, a one-hot column that
// is 0 on every row (constant), and a {0, 1} column whose 1s sit only on
// rows outside the sample. Two continuous columns keep the general path
// in the same fit.
Problem MakeTwoValuedProblem(size_t n, uint64_t seed,
                             const std::vector<char>& member) {
  Rng rng(seed);
  Problem p;
  p.x = Matrix(n, 11);
  p.grad.resize(n);
  p.hess.resize(n);
  for (size_t i = 0; i < n; ++i) {
    int hot = static_cast<int>(rng.UniformInt(0, 3));
    for (int k = 0; k < 4; ++k) p.x(i, static_cast<size_t>(k)) = hot == k;
    int zero = static_cast<int>(rng.UniformInt(0, 2));
    p.x(i, 4) = zero == 0 ? -0.0 : (zero == 1 ? 0.0 : 1.0);
    p.x(i, 5) = rng.Bernoulli(0.4) ? -2.5 : (rng.Bernoulli(0.5) ? 0.0 : -0.0);
    p.x(i, 6) = rng.Bernoulli(0.7) ? -1.5 : 3.0;
    p.x(i, 7) = 0.0;
    p.x(i, 8) = member[i] == 0 && rng.Bernoulli(0.5) ? 1.0 : 0.0;
    p.x(i, 9) = rng.Normal(0.0, 1.0);
    p.x(i, 10) = std::round(rng.Normal(0.0, 2.0));
    double prob = rng.Uniform(0.05, 0.95);
    int label = rng.Bernoulli(0.2 + 0.3 * p.x(i, 1) + 0.2 * (p.x(i, 6) > 0) +
                              0.2 * (p.x(i, 9) > 0));
    p.grad[i] = prob - label;
    p.hess[i] = prob * (1.0 - prob);
  }
  return p;
}

TEST(SplitSearchOracleTest, TwoValuedColumnsMatchLevelScan) {
  const OptionCase option_cases[] = {
      {"defaults", 1.0, 0.0, 1.0},
      {"loose", 0.0, 0.0, 0.0},
      {"gamma", 1.0, 0.05, 0.5},
      {"min_child_weight_blocks_all", 1.0, 0.0, 1e9},
  };
  TreeFitWorkspace workspace;
  for (uint64_t seed : {3u, 4u}) {
    size_t n = seed == 3 ? 600 : 83;
    Rng sample_rng(seed + 100);
    std::vector<size_t> sample =
        sample_rng.SampleWithoutReplacement(n, n * 7 / 10);
    std::vector<char> member(n, 0);
    for (size_t index : sample) member[index] = 1;
    Problem p = MakeTwoValuedProblem(n, seed, member);
    for (PresortKind kind :
         {PresortKind::kSampleExact, PresortKind::kFullWithNonMembers,
          PresortKind::kValueless}) {
      PresortedFeatures presorted = MakePresort(p.x, sample, kind);
      if (kind == PresortKind::kFullWithNonMembers) {
        // Every column but the constant and the continuous ones is
        // two-valued over the full presort.
        ASSERT_EQ(presorted.low_run.size(), p.x.cols());
        for (size_t f = 0; f < p.x.cols(); ++f) {
          bool two_valued = f <= 6 || f == 8;
          EXPECT_EQ(presorted.low_run[f] > 0, two_valued) << "feature " << f;
        }
      } else {
        // Hand-built and value-less presorts take the general path.
        EXPECT_TRUE(presorted.low_run.empty() || presorted.values.empty());
      }
      for (const OptionCase& option_case : option_cases) {
        for (int depth = 0; depth <= 6; ++depth) {
          SCOPED_TRACE("seed " + std::to_string(seed) + " presort " +
                       std::to_string(static_cast<int>(kind)) + " " +
                       option_case.name + " depth " + std::to_string(depth));
          RegressionTreeOptions options;
          options.max_depth = depth;
          options.lambda = option_case.lambda;
          options.gamma = option_case.gamma;
          options.min_child_weight = option_case.min_child_weight;
          std::vector<Node> expected = ReferenceFitPresorted(
              p.x, p.grad, p.hess, sample, presorted, options);
          RegressionTree tree;
          ASSERT_TRUE(tree.FitPresorted(p.x, p.grad, p.hess, sample,
                                        presorted, options, &workspace)
                          .ok());
          ExpectSameTree(expected, tree.nodes());
        }
      }
    }
  }
  // The deep fits above must reach frontiers wider than one lane pass.
  Rng sample_rng(103);
  std::vector<size_t> sample = sample_rng.SampleWithoutReplacement(600, 420);
  std::vector<char> member(600, 0);
  for (size_t index : sample) member[index] = 1;
  Problem p = MakeTwoValuedProblem(600, 3, member);
  RegressionTreeOptions options;
  options.max_depth = 6;
  options.lambda = 0.0;
  options.min_child_weight = 0.0;
  RegressionTree tree;
  ASSERT_TRUE(tree.FitPresorted(p.x, p.grad, p.hess, sample,
                                PresortedFeatures::Compute(p.x), options)
                  .ok());
  size_t widest = 0;
  for (size_t first = 1, width = 2; first < tree.num_nodes();) {
    widest = std::max(widest, width);
    size_t next = 0;
    for (size_t i = first; i < first + width; ++i) {
      next += tree.nodes()[i].is_leaf ? 0 : 2;
    }
    first += width;
    width = next;
    if (width == 0) break;
  }
  EXPECT_GT(widest, 8u);
}

// A presort edited after Compute() must have its low runs cleared; one
// whose values no longer bracket the run at its edges falls back to the
// general path, which checks everything.
TEST(SplitSearchOracleTest, EditedPresortFallsBackToGeneralPath) {
  size_t n = 120;
  std::vector<size_t> all(n);
  for (size_t i = 0; i < n; ++i) all[i] = i;
  Problem p = MakeTwoValuedProblem(n, 5, std::vector<char>(n, 1));
  PresortedFeatures presorted = PresortedFeatures::Compute(p.x);
  ASSERT_GT(presorted.low_run[0], 0u);
  RegressionTreeOptions options;
  RegressionTree tree;
  // A NaN at the run's edge: the general path rejects it.
  PresortedFeatures poisoned = presorted;
  poisoned.values[0][presorted.low_run[0]] =
      std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(tree.FitPresorted(p.x, p.grad, p.hess, all, poisoned, options)
                .code(),
            StatusCode::kInvalidArgument);
  // A presort that misses a sample row is rejected on the two-valued path
  // too.
  PresortedFeatures short_order = presorted;
  short_order.order[0].pop_back();
  short_order.values[0].pop_back();
  EXPECT_EQ(tree.FitPresorted(p.x, p.grad, p.hess, all, short_order, options)
                .code(),
            StatusCode::kInvalidArgument);
}

// Deep trees over a few distinct values drive most segments down to a
// single value, where the kernel skips both the scan and the partition.
TEST(SplitSearchOracleTest, SingleValueSegmentsStayExact) {
  Rng rng(17);
  size_t n = 400;
  Matrix x(n, 4);
  std::vector<double> grad(n);
  std::vector<double> hess(n, 0.25);
  for (size_t i = 0; i < n; ++i) {
    for (size_t f = 0; f < 4; ++f) {
      x(i, f) = static_cast<double>(rng.UniformInt(0, f == 0 ? 1 : 3));
    }
    grad[i] = rng.Normal(x(i, 0) - 0.5, 1.0);
  }
  std::vector<size_t> sample(n);
  for (size_t i = 0; i < n; ++i) sample[i] = n - 1 - i;
  PresortedFeatures presorted = PresortedFeatures::Compute(x);
  RegressionTreeOptions options;
  options.max_depth = 6;
  options.min_child_weight = 0.0;
  options.lambda = 0.5;
  RegressionTree tree;
  ASSERT_TRUE(
      tree.FitPresorted(x, grad, hess, sample, presorted, options).ok());
  ExpectSameTree(
      ReferenceFitPresorted(x, grad, hess, sample, presorted, options),
      tree.nodes());
  EXPECT_GT(tree.num_leaves(), 8u);
}

TEST(SplitSearchOracleTest, RejectsNaNAndMalformedSamples) {
  Problem p = MakeProblem(40, 3);
  p.x(11, 0) = std::numeric_limits<double>::quiet_NaN();
  RegressionTreeOptions options;
  std::vector<size_t> all(40);
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  RegressionTree tree;
  EXPECT_EQ(tree.Fit(p.x, p.grad, p.hess, all, options).code(),
            StatusCode::kInvalidArgument);

  std::vector<int> y(40);
  for (size_t i = 0; i < y.size(); ++i) y[i] = p.grad[i] < 0.0 ? 1 : 0;
  GradientBoostedTrees model;
  Rng rng(4);
  EXPECT_EQ(model.Fit(p.x, y, &rng).code(), StatusCode::kInvalidArgument);

  Problem clean = MakeProblem(40, 5);
  PresortedFeatures presorted = PresortedFeatures::Compute(clean.x);
  EXPECT_EQ(tree.FitPresorted(clean.x, clean.grad, clean.hess, {3, 5, 3},
                              presorted, options)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(tree.FitPresorted(clean.x, clean.grad, clean.hess, {3, 40},
                              presorted, options)
                .code(),
            StatusCode::kInvalidArgument);
  // A presort that lacks a sample row cannot be scanned exactly.
  std::vector<char> member(40, 0);
  member[3] = 1;
  PresortedFeatures only_three = test::SampleOnlyPresort(presorted, member);
  EXPECT_EQ(tree.FitPresorted(clean.x, clean.grad, clean.hess, {3, 5},
                              only_three, options)
                .code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace fairclean
