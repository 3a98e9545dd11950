#include "ml/isolation_forest.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace fairclean {

namespace {
constexpr double kEulerMascheroni = 0.5772156649015329;
}  // namespace

double AveragePathLength(size_t n) {
  if (n <= 1) return 0.0;
  if (n == 2) return 1.0;
  double nd = static_cast<double>(n);
  double harmonic = std::log(nd - 1.0) + kEulerMascheroni;
  return 2.0 * harmonic - 2.0 * (nd - 1.0) / nd;
}

Status IsolationForest::Fit(const Matrix& x, Rng* rng) {
  if (x.rows() == 0 || x.cols() == 0) {
    return Status::InvalidArgument("empty training matrix");
  }
  if (options_.num_trees <= 0 || options_.subsample_size == 0) {
    return Status::InvalidArgument("invalid isolation forest options");
  }
  if (options_.contamination <= 0.0 || options_.contamination >= 0.5) {
    return Status::InvalidArgument("contamination must be in (0, 0.5)");
  }
  size_t psi = std::min(options_.subsample_size, x.rows());
  normalizer_ = AveragePathLength(psi);
  int depth_limit =
      static_cast<int>(std::ceil(std::log2(static_cast<double>(psi)))) + 1;

  trees_.clear();
  trees_.resize(static_cast<size_t>(options_.num_trees));
  std::vector<size_t> spill(psi);
  for (Tree& tree : trees_) {
    std::vector<size_t> sample = rng->SampleWithoutReplacement(x.rows(), psi);
    BuildNode(x, sample.data(), sample.size(), spill.data(), 0, depth_limit,
              rng, &tree);
  }
  fitted_ = true;

  // Threshold = (1 - contamination) quantile of the training scores, so
  // that a `contamination` fraction of the training rows is flagged.
  training_scores_ = Score(x);
  std::vector<double> sorted = training_scores_;
  std::sort(sorted.begin(), sorted.end());
  double rank = (1.0 - options_.contamination) *
                static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = rank - static_cast<double>(lo);
  threshold_ = sorted[lo] + frac * (sorted[hi] - sorted[lo]);
  return Status::OK();
}

int IsolationForest::BuildNode(const Matrix& x, size_t* indices, size_t count,
                               size_t* spill, int depth, int depth_limit,
                               Rng* rng, Tree* tree) {
  int node_id = static_cast<int>(tree->nodes.size());
  tree->nodes.emplace_back();
  Node& leaf = tree->nodes.back();
  leaf.child[0] = node_id;
  leaf.child[1] = node_id;
  // Same double sum as accumulating 1.0 per edge during scoring: depth is
  // an exact small integer.
  leaf.value = static_cast<double>(depth) + AveragePathLength(count);
  tree->depth = std::max(tree->depth, depth);

  if (count <= 1 || depth >= depth_limit) return node_id;

  // Choose a split feature with spread; give up after a few attempts if the
  // subsample is constant in every tried dimension.
  size_t feature = 0;
  double lo = 0.0;
  double hi = 0.0;
  bool found = false;
  for (int attempt = 0; attempt < 8 && !found; ++attempt) {
    feature = static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(x.cols()) - 1));
    lo = x.Row(indices[0])[feature];
    hi = lo;
    for (size_t i = 0; i < count; ++i) {
      lo = std::min(lo, x.Row(indices[i])[feature]);
      hi = std::max(hi, x.Row(indices[i])[feature]);
    }
    found = hi > lo;
  }
  if (!found) return node_id;

  // Stable partition in place: left rows compact forward, right rows wait
  // in `spill` (free again once copied back, before recursing), so each
  // child sees its rows in the order a fresh per-node vector would hold.
  double split = rng->Uniform(lo, hi);
  size_t left_count = 0;
  size_t right_count = 0;
  for (size_t i = 0; i < count; ++i) {
    size_t index = indices[i];
    if (x.Row(index)[feature] < split) {
      indices[left_count++] = index;
    } else {
      spill[right_count++] = index;
    }
  }
  std::copy(spill, spill + right_count, indices + left_count);
  if (left_count == 0 || right_count == 0) return node_id;

  int left = BuildNode(x, indices, left_count, spill, depth + 1, depth_limit,
                       rng, tree);
  int right = BuildNode(x, indices + left_count, right_count, spill,
                        depth + 1, depth_limit, rng, tree);
  Node& node = tree->nodes[static_cast<size_t>(node_id)];
  node.feature = static_cast<uint32_t>(feature);
  node.value = split;
  node.child[0] = left;
  node.child[1] = right;
  return node_id;
}

// Trees outer, rows inner: one tree's nodes stay cache-resident while every
// row walks it, instead of each row walking the whole forest. Rows walk in
// groups of kLanes, all lanes stepping together for the tree's full depth
// (leaves step to themselves), so the group's node loads overlap and no
// step branches on the data. Each row still reaches the same leaf and
// adds its trees' path lengths in ascending tree order, so its sum is
// bit-equal to a rows-outer walk.
std::vector<double> IsolationForest::Score(const Matrix& x) const {
  FC_CHECK_MSG(fitted_, "Score before Fit");
  constexpr size_t kLanes = 8;
  size_t n = x.rows();
  std::vector<double> total_path(n, 0.0);
  for (const Tree& tree : trees_) {
    const Node* nodes = tree.nodes.data();
    for (size_t begin = 0; begin < n; begin += kLanes) {
      size_t lanes = std::min(kLanes, n - begin);
      const double* rows[kLanes];
      const Node* at[kLanes];
      for (size_t k = 0; k < lanes; ++k) {
        rows[k] = x.Row(begin + k);
        at[k] = nodes;
      }
      for (int step = 0; step < tree.depth; ++step) {
        for (size_t k = 0; k < lanes; ++k) {
          const Node* node = at[k];
          bool right = !(rows[k][node->feature] < node->value);
          at[k] = nodes + node->child[right];
        }
      }
      for (size_t k = 0; k < lanes; ++k) {
        total_path[begin + k] += at[k]->value;
      }
    }
  }
  std::vector<double> out(n);
  for (size_t i = 0; i < n; ++i) {
    double mean_path = total_path[i] / static_cast<double>(trees_.size());
    out[i] = std::pow(2.0, -mean_path / normalizer_);
  }
  return out;
}

namespace {

std::vector<bool> AboveThreshold(const std::vector<double>& scores,
                                 double threshold) {
  std::vector<bool> out(scores.size());
  for (size_t i = 0; i < scores.size(); ++i) {
    out[i] = scores[i] > threshold;
  }
  return out;
}

}  // namespace

std::vector<bool> IsolationForest::IsAnomaly(const Matrix& x) const {
  return AboveThreshold(Score(x), threshold_);
}

std::vector<bool> IsolationForest::TrainingAnomalies() const {
  FC_CHECK_MSG(fitted_, "TrainingAnomalies before Fit");
  return AboveThreshold(training_scores_, threshold_);
}

}  // namespace fairclean
