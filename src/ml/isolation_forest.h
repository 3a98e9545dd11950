#ifndef FAIRCLEAN_ML_ISOLATION_FOREST_H_
#define FAIRCLEAN_ML_ISOLATION_FOREST_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "ml/matrix.h"

namespace fairclean {

/// Hyperparameters for IsolationForest (defaults follow Liu et al. and
/// scikit-learn).
struct IsolationForestOptions {
  int num_trees = 100;
  /// Subsample size per tree (psi).
  size_t subsample_size = 256;
  /// Expected fraction of anomalies; determines the score threshold used by
  /// IsAnomaly. The paper uses contamination = 0.01.
  double contamination = 0.01;
};

/// Isolation forest anomaly detector (Liu, Ting, Zhou 2008): trees isolate
/// points with uniformly random axis-aligned splits; anomalous points have
/// short expected path lengths. Backs the paper's multivariate
/// `outliers-if` detection strategy.
class IsolationForest {
 public:
  explicit IsolationForest(IsolationForestOptions options = {})
      : options_(options) {}

  /// Builds the forest on the rows of `x`.
  Status Fit(const Matrix& x, Rng* rng);

  /// Anomaly score in (0, 1) per row of `x`; higher = more anomalous.
  /// Score 0.5 corresponds to the average path length of an ordinary point.
  std::vector<double> Score(const Matrix& x) const;

  /// Flags per row of `x`: true for rows whose score exceeds the
  /// contamination threshold fitted on the training scores.
  std::vector<bool> IsAnomaly(const Matrix& x) const;

  /// IsAnomaly of the matrix passed to the last Fit, from the scores Fit
  /// already computed for the threshold.
  std::vector<bool> TrainingAnomalies() const;

  double threshold() const { return threshold_; }

 private:
  struct Node {
    /// Internal: the split threshold (go to child[0] if value < it). Leaf:
    /// depth + c(training points here), the path length of every row that
    /// ends here.
    double value = 0.0;
    uint32_t feature = 0;
    /// A leaf's children are itself, so stepping past a leaf stays there.
    int child[2] = {0, 0};
  };
  struct Tree {
    std::vector<Node> nodes;
    int depth = 0;  // deepest leaf
  };

  /// Grows the subtree over indices[0, count); `spill` is scratch for at
  /// least `count` entries.
  int BuildNode(const Matrix& x, size_t* indices, size_t count, size_t* spill,
                int depth, int depth_limit, Rng* rng, Tree* tree);

  IsolationForestOptions options_;
  std::vector<Tree> trees_;
  double normalizer_ = 1.0;  // c(psi)
  double threshold_ = 0.5;
  std::vector<double> training_scores_;
  bool fitted_ = false;
};

/// Average path length of an unsuccessful BST search over n points
/// (the c(n) normalizer from the isolation-forest paper).
double AveragePathLength(size_t n);

}  // namespace fairclean

#endif  // FAIRCLEAN_ML_ISOLATION_FOREST_H_
