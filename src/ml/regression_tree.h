#ifndef FAIRCLEAN_ML_REGRESSION_TREE_H_
#define FAIRCLEAN_ML_REGRESSION_TREE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "ml/matrix.h"
#include "ml/tree_compress.h"

namespace fairclean {

/// Structural hyperparameters for a single gradient tree.
struct RegressionTreeOptions {
  int max_depth = 3;
  /// L2 regularization on leaf weights (XGBoost's lambda).
  double lambda = 1.0;
  /// Minimum split gain (XGBoost's gamma).
  double gamma = 0.0;
  /// Minimum hessian sum per child (XGBoost's min_child_weight).
  double min_child_weight = 1.0;
};

/// Feature-sorted row orderings shared across the trees of one boosting
/// run: the presort is the dominant per-tree cost and the ordering never
/// changes, so GradientBoostedTrees computes it once — and tuning shares
/// one presort per fold across the whole hyperparameter grid.
struct PresortedFeatures {
  /// order[f] = row ids sorted ascending by feature f. Compute() emits all
  /// rows of the matrix; a hand-built presort may list only a subset.
  /// Row ids are 32-bit, which halves the presort's id bytes.
  std::vector<std::vector<uint32_t>> order;
  /// values[f][i] = feature f of row order[f][i], kept in lockstep with
  /// `order` so the split search streams feature values sequentially
  /// instead of gathering one cache line per row. May be empty (e.g. a
  /// hand-built presort), in which case the fit gathers from the matrix.
  std::vector<std::vector<double>> values;
  /// low_run[f] > 0 marks a column that takes at most two values over its
  /// whole order: values[f][0, low_run[f]) hold its smallest value a and
  /// the rest its other value b > a, if any. low_run[f] == order[f].size()
  /// marks a constant column. Compute() sets it for every such column and
  /// fills 0 for every other one. The split search then sums one run per
  /// node instead of partitioning the column, or skips a constant column
  /// outright (DESIGN.md §8). It trusts a marked order of one entry per
  /// matrix row to list each row exactly once without checking: Compute()
  /// builds it that way. A hand-built presort leaves low_run empty, and a
  /// caller that edits `order` or `values` afterwards must clear it, or a
  /// same-size edit may go unnoticed and change the tree.
  std::vector<size_t> low_run;

  static PresortedFeatures Compute(const Matrix& x);
};

/// Reusable scratch for FitPresorted, hoisted out of the per-round hot loop
/// by GradientBoostedTrees so repeated fits on the same matrix allocate
/// their buffers once instead of once per tree. Contents are overwritten
/// by every fit; a workspace must not be shared between concurrent fits.
class TreeFitWorkspace {
 public:
  /// Best split found for one node; a gain of 0 means "stay a leaf".
  struct SplitCandidate {
    double gain = 0.0;
    size_t feature = 0;
    double threshold = 0.0;
  };

  /// After a successful fit: the leaf holding sampled row `row`, or -1 for
  /// a row outside the sample. The fit routes rows with PredictOne's `<`
  /// comparison, so the leaf's value is what PredictOne returns for it.
  int leaf_of(size_t row) const { return node_of[row]; }

  /// Two-valued column-levels whose split search went through the
  /// short-run bound, and those of them that then needed the exact long
  /// run, summed over every fit with this workspace (DESIGN.md §8).
  uint64_t split_bounded() const { return split_bounded_; }
  uint64_t split_verified() const { return split_verified_; }

  /// Runs the portable scalar kernels even where the CPU has AVX-512, so
  /// tests can check both forms through the whole fit.
  void UseScalarKernels(bool scalar) { scalar_kernels_ = scalar; }

 private:
  friend class RegressionTree;

  // A two-valued column: its feature, its low and high runs in presort
  // order, the threshold between them, and whether its split sums are
  // bounded from the high run (the shorter one) before the low run is
  // streamed.
  struct TwoValued {
    size_t feature = 0;
    tree_compress::Run low;
    tree_compress::Run high;
    double threshold = 0.0;
    bool bounded = false;
  };

  // Per absolute row: current node id, or -1 outside the sample. One extra
  // -1 entry past the last row backs the kernels' clamped lookups.
  std::vector<int> node_of;
  // Interleaved [grad, hess] per absolute row, plus a zero pair past the
  // last row.
  std::vector<double> gh;
  std::vector<double> g_total;   // per node
  std::vector<double> h_total;   // per node
  std::vector<size_t> seg_begin;  // per node: first slot of its segment
  std::vector<size_t> seg_size;   // per node: rows in its segment
  std::vector<int> frontier;
  std::vector<int> next_frontier;
  std::vector<int> split_parents;   // nodes split at the previous level
  std::vector<double> parent_score;           // per frontier slot
  std::vector<SplitCandidate> best;           // per frontier slot
  // The fit's column plan: general-path columns, and two-valued columns
  // with their runs, the bounded ones first.
  std::vector<size_t> general;
  std::vector<TwoValued> two_valued;
  std::vector<tree_compress::Run> short_runs;  // per two-valued column
  std::vector<tree_compress::Run> long_runs;   // per verified column
  std::vector<size_t> long_columns;            // two_valued index of each
  std::vector<tree_compress::LaneSums> short_sums;
  std::vector<tree_compress::LaneSums> long_sums;
  // Upper bound of each bounded column's gain in each lane of a pass, at
  // [two_valued index * kMaxLanes + lane]; +inf where none is certified.
  std::vector<double> gain_upper;
  std::vector<uint8_t> verified;  // per bounded column, this level
  tree_compress::LanePass lane_pass;
  uint64_t split_bounded_ = 0;
  uint64_t split_verified_ = 0;
  bool scalar_kernels_ = false;
  // Two copies of the sample's presort, each one stride of m + 1 slots per
  // general-path column (the level-0 filter writes one slot past the last
  // kept row), laid out as contiguous per-node segments. Level 0 compacts
  // the presort into copy 0; every later level partitions the previous
  // level's copy into the other one.
  std::vector<uint32_t> rows[2];
  std::vector<double> values[2];
};

/// A depth-limited regression tree fitted to per-example gradients and
/// hessians with exact greedy splits — the weak learner inside
/// GradientBoostedTrees (second-order boosting, XGBoost-style).
class RegressionTree {
 public:
  /// Fits the tree on the rows of `x` listed in `sample_indices` with
  /// parallel gradient/hessian statistics (indexed by absolute row).
  Status Fit(const Matrix& x, const std::vector<double>& grad,
             const std::vector<double>& hess,
             const std::vector<size_t>& sample_indices,
             const RegressionTreeOptions& options);

  /// Like Fit, but reuses a precomputed feature presort. `presorted` may
  /// hold all rows of the matrix or any superset of the sample rows;
  /// either way the sample rows are first compacted into the workspace, so
  /// each level costs O(sample size) per feature. Sample indices must be
  /// distinct rows of `x`, and the presort must list every sample row
  /// with values that ascend and hold no NaN; anything else is rejected
  /// with InvalidArgument. Presort row ids past the matrix count as rows
  /// outside the sample.
  ///
  /// A column marked in `low_run` whose order has one entry per row of
  /// `x` is trusted, unchecked, to list each row once (Compute() builds
  /// it so; see PresortedFeatures::low_run) and is never compacted. A constant one costs nothing. A two-valued one sums
  /// its shorter run per level; when that is its high run, the column's
  /// gain is bounded from the node totals within a certified rounding
  /// slack, and its low run is streamed only where the bound cannot rule
  /// the column out of a node or cannot be certified (non-finite sums, a
  /// denominator range reaching 0, min_child_weight inside a hessian
  /// range). A column left out can never have won the node, so the tree
  /// is bit-identical to scanning every column exactly (DESIGN.md §8).
  Status FitPresorted(const Matrix& x, const std::vector<double>& grad,
                      const std::vector<double>& hess,
                      const std::vector<size_t>& sample_indices,
                      const PresortedFeatures& presorted,
                      const RegressionTreeOptions& options);

  /// FitPresorted with caller-owned scratch, for hot loops that fit many
  /// trees back to back (boosting rounds, grid points).
  Status FitPresorted(const Matrix& x, const std::vector<double>& grad,
                      const std::vector<double>& hess,
                      const std::vector<size_t>& sample_indices,
                      const PresortedFeatures& presorted,
                      const RegressionTreeOptions& options,
                      TreeFitWorkspace* workspace);

  /// Leaf weight for a single feature row (length = x.cols() at fit time).
  double PredictOne(const double* row) const;

  /// Number of nodes (internal + leaves); 0 before Fit.
  size_t num_nodes() const { return nodes_.size(); }
  /// Number of leaves.
  size_t num_leaves() const;

  struct Node {
    bool is_leaf = true;
    size_t feature = 0;
    double threshold = 0.0;  // go left if value < threshold
    int left = -1;
    int right = -1;
    double value = 0.0;  // leaf weight
  };

  /// The fitted nodes in creation order (root first, then each level's
  /// children left before right).
  const std::vector<Node>& nodes() const { return nodes_; }

 private:
  std::vector<Node> nodes_;
};

}  // namespace fairclean

#endif  // FAIRCLEAN_ML_REGRESSION_TREE_H_
