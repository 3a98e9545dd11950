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
  /// low_run[f] > 0 marks a column that takes exactly two values a < b
  /// over its whole order (a one-hot column): values[f][0, low_run[f]) are
  /// a, the rest b. The split search then sums that run per node instead
  /// of partitioning the column (DESIGN.md §8). Compute() fills it with 0
  /// for every other column; a hand-built presort leaves it empty, and a
  /// caller that edits `order` or `values` afterwards must clear it.
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

 private:
  friend class RegressionTree;

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
  std::vector<SplitCandidate> feature_best;   // [feature * width + slot]
  // Per feature slot, used by its chunk in order: the low runs of the
  // chunk's two-valued columns, their features, their sampled rows past
  // the run (level 0 only) and their lane sums.
  std::vector<tree_compress::LowRun> low_runs;
  std::vector<size_t> low_run_features;
  std::vector<size_t> high_sampled;
  std::vector<tree_compress::LaneSums> lane_sums;
  std::vector<tree_compress::LaneScratch> lane_scratch;  // per chunk
  // Two copies of the sample's presort, each one stride of m + 1 slots per
  // feature (the level-0 filter writes one slot past the last kept row),
  // laid out as contiguous per-node segments. Level 0 compacts the
  // presort into copy 0; every later level partitions the previous
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
  /// each level costs O(sample size) per feature. A column marked in
  /// `low_run` instead costs its low run per level, with no compaction. Sample indices must be
  /// distinct rows of `x`, and the presort must list every sample row
  /// with values that ascend and hold no NaN; anything else is rejected
  /// with InvalidArgument. Presort row ids past the matrix count as rows
  /// outside the sample.
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
