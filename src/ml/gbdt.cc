#include "ml/gbdt.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fairclean {

namespace {

double Sigmoid(double z) {
  if (z >= 0.0) {
    double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  double e = std::exp(z);
  return e / (1.0 + e);
}

double LogisticLoss(double y, double p) {
  constexpr double kEps = 1e-12;
  double clipped = std::min(1.0 - kEps, std::max(kEps, p));
  return -(y * std::log(clipped) + (1.0 - y) * std::log(1.0 - clipped));
}

}  // namespace

Status GradientBoostedTrees::Fit(const Matrix& x, const std::vector<int>& y,
                                 Rng* rng) {
  if (x.rows() != y.size()) {
    return Status::InvalidArgument("feature/label size mismatch");
  }
  if (x.rows() == 0) {
    return Status::InvalidArgument("empty training set");
  }
  if (options_.num_rounds <= 0 || options_.learning_rate <= 0.0) {
    return Status::InvalidArgument("invalid boosting options");
  }
  if (options_.subsample <= 0.0 || options_.subsample > 1.0) {
    return Status::InvalidArgument("subsample must be in (0, 1]");
  }
  size_t n = x.rows();
  obs::TraceSpan span("ml", "gbdt fit");

  // Initialize with the log-odds of the base rate (clipped for degenerate
  // single-class training sets).
  double positives = 0.0;
  for (int label : y) positives += label;
  double rate = std::min(1.0 - 1e-6, std::max(1e-6, positives / n));
  base_score_ = std::log(rate / (1.0 - rate));

  RegressionTreeOptions tree_options = options_.tree;
  tree_options.max_depth = options_.max_depth;

  // prob[i] = Sigmoid(margin[i]) of the model so far: computed where the
  // margin changes and read back as the next round's gradient probability.
  std::vector<double> margin(n, base_score_);
  std::vector<double> prob(n, Sigmoid(base_score_));
  std::vector<double> grad(n);
  std::vector<double> hess(n);
  trees_.clear();

  // The feature ordering is invariant across boosting rounds; presort once
  // — or not at all when the tuner already presorted this matrix for the
  // whole hyperparameter grid.
  static obs::Counter* const shared_presorts =
      obs::MetricsRegistry::Global().GetCounter("ml.gbdt.presorts_shared");
  const PresortedFeatures* presorted = external_presort_;
  PresortedFeatures owned_presort;
  if (presorted != nullptr) {
    shared_presorts->Increment();
  } else {
    owned_presort = PresortedFeatures::Compute(x);
    presorted = &owned_presort;
  }

  // Tree-fit buffers, including the round's compacted and partitioned
  // presort, are reused across the 50-round hot loop.
  TreeFitWorkspace workspace;

  for (int round = 0; round < options_.num_rounds; ++round) {
    for (size_t i = 0; i < n; ++i) {
      double p = prob[i];
      grad[i] = p - static_cast<double>(y[i]);
      hess[i] = std::max(1e-10, p * (1.0 - p));
    }

    std::vector<size_t> sample;
    if (options_.subsample < 1.0 && rng != nullptr) {
      size_t k = std::max<size_t>(
          1, static_cast<size_t>(options_.subsample * static_cast<double>(n)));
      sample = rng->SampleWithoutReplacement(n, k);
    } else {
      sample.resize(n);
      for (size_t i = 0; i < n; ++i) sample[i] = i;
    }

    RegressionTree tree;
    FC_RETURN_IF_ERROR(tree.FitPresorted(x, grad, hess, sample, *presorted,
                                         tree_options, &workspace));
    // The fit already routed every sampled row to its leaf, with the same
    // comparisons as PredictOne; only rows outside the sample walk the tree.
    const std::vector<RegressionTree::Node>& nodes = tree.nodes();
    for (size_t i = 0; i < n; ++i) {
      int leaf = workspace.leaf_of(i);
      double value = leaf >= 0 ? nodes[static_cast<size_t>(leaf)].value
                               : tree.PredictOne(x.Row(i));
      margin[i] += options_.learning_rate * value;
      prob[i] = Sigmoid(margin[i]);
    }
    trees_.push_back(std::move(tree));
  }
  // Added once per fit, so the hot loop touches no shared counter.
  static obs::Counter* const split_bounded =
      obs::MetricsRegistry::Global().GetCounter("ml.gbdt.split.bounded");
  static obs::Counter* const split_verified =
      obs::MetricsRegistry::Global().GetCounter("ml.gbdt.split.verified");
  split_bounded->Increment(workspace.split_bounded());
  split_verified->Increment(workspace.split_verified());
  fitted_ = true;
  return Status::OK();
}

std::vector<double> GradientBoostedTrees::TrainingLossCurve(
    const Matrix& x, const std::vector<int>& y) const {
  FC_CHECK_MSG(fitted_, "TrainingLossCurve before Fit");
  FC_CHECK_EQ(x.rows(), y.size());
  size_t n = x.rows();
  std::vector<double> margin(n, base_score_);
  std::vector<double> curve;
  curve.reserve(trees_.size());
  for (const RegressionTree& tree : trees_) {
    double loss = 0.0;
    for (size_t i = 0; i < n; ++i) {
      margin[i] += options_.learning_rate * tree.PredictOne(x.Row(i));
      loss += LogisticLoss(static_cast<double>(y[i]), Sigmoid(margin[i]));
    }
    curve.push_back(loss / static_cast<double>(n));
  }
  return curve;
}

Status GradientBoostedTrees::FitWithPresort(const Matrix& x,
                                            const std::vector<int>& y,
                                            Rng* rng,
                                            const PresortedFeatures* presorted) {
  external_presort_ = presorted;
  Status status = Fit(x, y, rng);
  external_presort_ = nullptr;
  return status;
}

std::vector<double> GradientBoostedTrees::PredictProba(const Matrix& x) const {
  FC_CHECK_MSG(fitted_, "PredictProba before Fit");
  std::vector<double> out(x.rows());
  // GEMM-shaped stacked scan: trees outer, row blocks inner, so one tree's
  // node array is walked by a whole block of rows before moving on. Each
  // row's margin still accumulates base + lr*tree_0 + lr*tree_1 + ... in
  // ascending tree order — the identical float add sequence as a rows-outer
  // loop (a single-row call) — so the scores do not depend on the block.
  constexpr size_t kRowBlock = 64;
  for (size_t begin = 0; begin < x.rows(); begin += kRowBlock) {
    size_t end = std::min(begin + kRowBlock, x.rows());
    double margins[kRowBlock];
    for (size_t i = begin; i < end; ++i) margins[i - begin] = base_score_;
    for (const RegressionTree& tree : trees_) {
      for (size_t i = begin; i < end; ++i) {
        margins[i - begin] +=
            options_.learning_rate * tree.PredictOne(x.Row(i));
      }
    }
    for (size_t i = begin; i < end; ++i) {
      out[i] = Sigmoid(margins[i - begin]);
    }
  }
  return out;
}

}  // namespace fairclean
