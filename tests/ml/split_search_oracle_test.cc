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
// Registered at FAIRCLEAN_THREADS 1 and 4 (tests/CMakeLists.txt): the fit
// runs every level on the calling thread, so the width of the shared fold
// pool must not show in any tree.
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
        // Every column but the continuous ones is two-valued over the
        // full presort, and the constant one's run is all of it.
        ASSERT_EQ(presorted.low_run.size(), p.x.cols());
        for (size_t f = 0; f < p.x.cols(); ++f) {
          bool two_valued = f <= 6 || f == 8;
          EXPECT_EQ(presorted.low_run[f] > 0, two_valued || f == 7)
              << "feature " << f;
        }
        EXPECT_EQ(presorted.low_run[7], n);
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

// ---------------------------------------------------------------------------
// The short-run bound (DESIGN.md §8, "Two-valued columns"). A one-hot
// column whose high run is the shorter one sums that run, bounds its gain
// from the node totals and streams its low run only when the bound cannot
// rule it out. Every case below must keep the reference's tree bit for bit
// on both kernel forms and must leave some column-level out (the pruned
// path); the ones built to defeat the bound must also send some column to
// the exact fallback.

// Columns: 0 continuous; 1-4 a one-hot block at 55/25/12/8%, so column 1
// sums its low run exactly and 2-4 are bounded; 5 is 1 on 85% of rows (its
// high run is the longer one); 6 takes {-1.5, 3} with 3 on 10% of rows.
// Logistic statistics with a label driven by columns 2, 5 and 6.
Problem MakeBoundedProblem(size_t n, uint64_t seed) {
  Rng rng(seed);
  Problem p;
  p.x = Matrix(n, 7);
  p.grad.resize(n);
  p.hess.resize(n);
  for (size_t i = 0; i < n; ++i) {
    p.x(i, 0) = rng.Normal(0.0, 1.0);
    double u = rng.Uniform();
    int hot = u < 0.55 ? 0 : (u < 0.80 ? 1 : (u < 0.92 ? 2 : 3));
    for (int k = 0; k < 4; ++k) p.x(i, 1 + static_cast<size_t>(k)) = hot == k;
    p.x(i, 5) = rng.Bernoulli(0.85) ? 1.0 : 0.0;
    p.x(i, 6) = rng.Bernoulli(0.1) ? 3.0 : -1.5;
    double prob = rng.Uniform(0.05, 0.95);
    int label = rng.Bernoulli(0.15 + 0.5 * p.x(i, 2) + 0.2 * (p.x(i, 6) > 0) +
                              0.1 * p.x(i, 5));
    p.grad[i] = prob - label;
    p.hess[i] = prob * (1.0 - prob);
  }
  return p;
}

// `x` with `column` appended as its last column.
Matrix WithColumn(const Matrix& x, const std::vector<double>& column) {
  Matrix out(x.rows(), x.cols() + 1);
  for (size_t i = 0; i < x.rows(); ++i) {
    for (size_t f = 0; f < x.cols(); ++f) out(i, f) = x(i, f);
    out(i, x.cols()) = column[i];
  }
  return out;
}

std::vector<double> Column(const Matrix& x, size_t f) {
  std::vector<double> column(x.rows());
  for (size_t i = 0; i < x.rows(); ++i) column[i] = x(i, f);
  return column;
}

struct BoundCase {
  std::string name;
  Problem problem;
  std::vector<size_t> sample;
  RegressionTreeOptions options;
  bool defeats_bound = false;  // must send some column-level to the fallback
};

std::vector<size_t> SampleOf(size_t n, uint64_t seed) {
  Rng rng(seed);
  return rng.SampleWithoutReplacement(n, n * 4 / 5);
}

std::vector<BoundCase> MakeBoundCases() {
  const size_t n = 320;
  std::vector<BoundCase> cases;
  auto add = [&](std::string name, Problem p, RegressionTreeOptions options,
                 bool defeats_bound) {
    BoundCase c;
    c.name = std::move(name);
    c.sample = SampleOf(p.x.rows(), cases.size() + 40);
    c.problem = std::move(p);
    c.options = options;
    c.defeats_bound = defeats_bound;
    cases.push_back(std::move(c));
  };
  RegressionTreeOptions defaults;

  // Exact ties. Column 7 is column 2's complement except on one row
  // outside the sample that holds neither category, and every statistic is
  // dyadic, so every sum is exact and the two columns' gains tie bit for
  // bit: the lower feature, the bounded column 2, must win over the exact
  // column 7 offered before it. Column 8 duplicates column 3.
  {
    Problem p = MakeBoundedProblem(n, 61);
    Rng rng(62);
    for (size_t i = 0; i < n; ++i) {
      p.grad[i] = static_cast<double>(rng.UniformInt(-4, 4)) / 8.0;
      p.hess[i] = static_cast<double>(rng.UniformInt(1, 4)) / 16.0;
      if (p.x(i, 2) > 0) p.grad[i] = -0.75;
    }
    std::vector<char> member(n, 0);
    for (size_t index : SampleOf(n, 40 + cases.size())) member[index] = 1;
    std::vector<double> complement = Column(p.x, 2);
    for (double& value : complement) value = 1.0 - value;
    for (size_t i = 0; i < n; ++i) {
      if (member[i] == 0 && p.x(i, 2) == 0.0) {
        complement[i] = 0.0;  // holds neither category
        break;
      }
    }
    p.x = WithColumn(WithColumn(p.x, complement), Column(p.x, 3));
    RegressionTreeOptions options = defaults;
    options.min_child_weight = 0.0;
    add("exact_ties", std::move(p), options, true);
  }
  // Gains equal to within 1e-12 relative: column 7 is column 2 plus one
  // sampled row whose statistics are 1e-12.
  {
    Problem p = MakeBoundedProblem(n, 63);
    std::vector<double> twin = Column(p.x, 2);
    std::vector<size_t> sample = SampleOf(n, 40 + cases.size());
    for (size_t index : sample) {
      if (twin[index] == 0.0) {
        twin[index] = 1.0;
        p.grad[index] = 1e-12;
        p.hess[index] = 1e-12;
        break;
      }
    }
    p.x = WithColumn(p.x, twin);
    add("near_tie", std::move(p), defaults, true);
  }
  // Heavy cancellation: the low runs of column 2 hold huge gradients in
  // opposite pairs, so a node's total is about its short-run sum.
  {
    Problem p = MakeBoundedProblem(n, 64);
    double sign = 1.0;
    for (size_t i = 0; i < n; ++i) {
      if (p.x(i, 2) > 0) continue;
      p.grad[i] = sign * 1e9 + p.grad[i];
      sign = -sign;
    }
    add("cancellation", std::move(p), defaults, true);
  }
  // min_child_weight at column 2's root h_right, and one ulp either side
  // (its h_left is far above): h_left is summed over the low run's sampled
  // rows in presort order, as the lane kernel adds it, and the root total
  // in sample order. Column 2 carries the strongest signal and column 7, a
  // bounded column that is 1 on 40% of rows, the next one, so a column 2
  // that fails min_child_weight must hand the root to column 7.
  for (int ulps : {-1, 0, 1}) {
    Problem p = MakeBoundedProblem(n, 65);
    Rng rng(73);
    std::vector<double> runner_up(n);
    for (size_t i = 0; i < n; ++i) {
      runner_up[i] = rng.Bernoulli(0.4) ? 1.0 : 0.0;
      p.grad[i] = (p.x(i, 2) > 0 ? -0.6 : 0.15) +
                  (runner_up[i] > 0 ? -0.3 : 0.1) + rng.Normal(0.0, 0.05);
    }
    p.x = WithColumn(p.x, runner_up);
    std::vector<size_t> sample = SampleOf(n, 40 + cases.size());
    std::vector<char> member(n, 0);
    for (size_t index : sample) member[index] = 1;
    PresortedFeatures presorted = PresortedFeatures::Compute(p.x);
    double h_left = 0.0;
    for (size_t i = 0; i < presorted.low_run[2]; ++i) {
      uint32_t row = presorted.order[2][i];
      if (member[row] != 0) h_left += p.hess[row];
    }
    double h_total = 0.0;
    for (size_t index : sample) h_total += p.hess[index];
    double h_right = h_total - h_left;
    RegressionTreeOptions options = defaults;
    options.min_child_weight =
        ulps == 0 ? h_right
                  : std::nextafter(h_right, ulps < 0 ? 0.0 : 2.0 * h_right);
    add("min_child_weight_ulp" + std::to_string(ulps), std::move(p), options,
        true);
  }
  // lambda = 0 with most hessians at the boosting loop's 1e-10 floor.
  {
    Problem p = MakeBoundedProblem(n, 66);
    Rng rng(67);
    for (size_t i = 0; i < n; ++i) {
      if (rng.Bernoulli(0.7)) p.hess[i] = 1e-10;
    }
    RegressionTreeOptions options = defaults;
    options.lambda = 0.0;
    options.min_child_weight = 0.0;
    add("lambda0_hess_floor", std::move(p), options, false);
  }
  {
    RegressionTreeOptions options = defaults;
    options.gamma = 0.4;
    add("gamma", MakeBoundedProblem(n, 68), options, false);
  }
  {
    RegressionTreeOptions options = defaults;
    options.lambda = 0.5;
    options.min_child_weight = 0.0;
    add("wide_frontier", MakeBoundedProblem(n, 69), options, false);
  }
  // Column 5's high run is its longer one; let it carry the label.
  {
    Problem p = MakeBoundedProblem(n, 70);
    for (size_t i = 0; i < n; ++i) p.grad[i] += p.x(i, 5) > 0 ? -0.3 : 0.6;
    add("high_run_longer", std::move(p), defaults, false);
  }
  // Statistics no logistic loss produces: wide gradients, some huge, and
  // hessians of either sign, some of them zero.
  {
    Problem p = MakeBoundedProblem(n, 71);
    Rng rng(72);
    for (size_t i = 0; i < n; ++i) {
      p.grad[i] = rng.Normal(0.0, 50.0) * (rng.Bernoulli(0.02) ? 1e6 : 1.0);
      int kind = static_cast<int>(rng.UniformInt(0, 9));
      p.hess[i] = kind == 0 ? -rng.Uniform(0.0, 2.0)
                            : (kind == 1 ? 0.0 : rng.Uniform(0.0, 3.0));
    }
    RegressionTreeOptions options = defaults;
    options.lambda = 2.0;
    options.min_child_weight = -1.0;
    add("non_logistic", std::move(p), options, false);
  }
  return cases;
}

// The most nodes any level of `tree` holds: nodes are created level by
// level, each split appending its two children.
size_t WidestLevel(const RegressionTree& tree) {
  size_t widest = 1;
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
  return widest;
}

TEST(SplitSearchOracleTest, ShortRunBoundKeepsEveryTree) {
  const char* kernel_names[] = {"avx512", "scalar"};
  for (const BoundCase& c : MakeBoundCases()) {
    PresortedFeatures presorted = PresortedFeatures::Compute(c.problem.x);
    for (int scalar = 0; scalar < 2; ++scalar) {
      TreeFitWorkspace workspace;
      workspace.UseScalarKernels(scalar == 1);
      size_t widest = 0;
      for (int depth : {1, 2, 4, 6}) {
        SCOPED_TRACE(c.name + " " + kernel_names[scalar] + " depth " +
                     std::to_string(depth));
        RegressionTreeOptions options = c.options;
        options.max_depth = depth;
        std::vector<Node> expected =
            ReferenceFitPresorted(c.problem.x, c.problem.grad, c.problem.hess,
                                  c.sample, presorted, options);
        RegressionTree tree;
        ASSERT_TRUE(tree.FitPresorted(c.problem.x, c.problem.grad,
                                      c.problem.hess, c.sample, presorted,
                                      options, &workspace)
                        .ok());
        ExpectSameTree(expected, tree.nodes());
        widest = std::max(widest, WidestLevel(tree));
      }
      SCOPED_TRACE(c.name + " " + kernel_names[scalar]);
      // Some column-level was left out without its long run...
      EXPECT_GT(workspace.split_bounded(), workspace.split_verified());
      // ...and the cases built against the bound needed the fallback.
      if (c.defeats_bound) {
        EXPECT_GT(workspace.split_verified(), 0u);
      }
      if (c.name == "wide_frontier") {
        EXPECT_GT(widest, 8u);
      }
    }
  }
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
  // A same-size edit (a sample row's id swapped for one outside the
  // sample) is trusted on a marked column; clearing low_run, as the
  // contract asks of an editor, sends it to the general path, which
  // rejects it.
  PresortedFeatures swapped = presorted;
  swapped.order[0][0] = static_cast<uint32_t>(n + 5);
  swapped.low_run.clear();
  EXPECT_EQ(tree.FitPresorted(p.x, p.grad, p.hess, all, swapped, options)
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
