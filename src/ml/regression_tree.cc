#include "ml/regression_tree.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/check.h"
#include "ml/tree_compress.h"

namespace fairclean {

namespace {

double LeafWeight(double g, double h, double lambda) {
  return -g / (h + lambda);
}

double ScoreHalf(double g, double h, double lambda) {
  return g * g / (h + lambda);
}

// Gain of splitting a node with sums (g_total, h_total) into a left child
// with sums (g_left, h_left), or 0 when either child's hessian sum falls
// under min_child_weight. Both split searches evaluate every candidate
// through this one expression.
double SplitGain(double g_left, double h_left, double g_total, double h_total,
                 double parent_score, const RegressionTreeOptions& options) {
  double g_right = g_total - g_left;
  double h_right = h_total - h_left;
  if (!(h_left >= options.min_child_weight &&
        h_right >= options.min_child_weight)) {
    return 0.0;
  }
  return tree_compress::GainOfHalves(
      ScoreHalf(g_left, h_left, options.lambda),
      ScoreHalf(g_right, h_right, options.lambda), parent_score,
      options.gamma);
}

// Exact greedy split search over one node segment sorted ascending by
// value. A candidate split exists only where the value changes, at the
// sums of everything before the change, so:
// - a single-value segment (first == last) has no candidate;
// - the leading run of the smallest value only accumulates;
// - the trailing run of the largest value contributes one candidate, at
//   its first entry, from the sums before the run, and is never added.
// Every evaluated candidate sees the same sums, in the same order, as a
// scan of the whole segment, so the result is bit-identical to it.
TreeFitWorkspace::SplitCandidate ScanSegment(
    const uint32_t* rows, const double* values, size_t size, const double* gh,
    double g_total, double h_total, double parent_score, size_t feature,
    const RegressionTreeOptions& options) {
  TreeFitWorkspace::SplitCandidate best;
  if (size < 2) return best;
  double first = values[0];
  double largest = values[size - 1];
  if (first == largest) return best;
  double best_gain = 0.0;
  double best_threshold = 0.0;
  double g_left = 0.0;
  double h_left = 0.0;
  auto candidate = [&](double last, double value) {
    double gain =
        SplitGain(g_left, h_left, g_total, h_total, parent_score, options);
    if (gain > best_gain) {
      best_gain = gain;
      best_threshold = 0.5 * (last + value);
    }
  };
  // Both runs are bounded by the other end's differing value.
  size_t trailing = size - 1;
  while (values[trailing - 1] == largest) --trailing;
  size_t i = 0;
  do {
    const double* pair = gh + 2 * static_cast<size_t>(rows[i]);
    g_left += pair[0];
    h_left += pair[1];
    ++i;
  } while (values[i] == first);
  double last = values[i - 1];
  for (; i < trailing; ++i) {
    double value = values[i];
    if (value != last) candidate(last, value);
    const double* pair = gh + 2 * static_cast<size_t>(rows[i]);
    g_left += pair[0];
    h_left += pair[1];
    last = value;
  }
  candidate(last, values[trailing]);
  best.gain = best_gain;
  best.feature = feature;
  best.threshold = best_threshold;
  return best;
}

// Length of the run of the smallest value when the ascending `values` hold
// at most two values a < b (±0.0 count as one), which is all of them for a
// constant column; else 0. NaN equals nothing, so a column holding one is
// never marked.
size_t LowRunLength(const std::vector<double>& values) {
  size_t run = 0;
  while (run < values.size() && values[run] == values.front()) ++run;
  if (run == values.size()) return run;
  if (!(values.front() < values.back())) return 0;
  for (size_t i = run; i < values.size(); ++i) {
    if (values[i] != values.back()) return 0;
  }
  return run;
}

// Column f's low run when the presort marks it, lists one entry per
// matrix row and its values agree at the run's edges; else 0, and the
// column takes the general path, which checks everything. A result of
// num_rows marks a constant column. Nothing here checks that a marked
// order holds each row once: Compute() builds it as a permutation, and a
// caller that edits it must clear low_run (regression_tree.h).
size_t UsableLowRun(const PresortedFeatures& presorted, size_t f,
                    size_t num_rows) {
  if (presorted.low_run.size() != presorted.order.size()) return 0;
  size_t run = presorted.low_run[f];
  size_t size = presorted.order[f].size();
  if (run == 0 || run > size || size != num_rows ||
      f >= presorted.values.size() || presorted.values[f].size() != size) {
    return 0;
  }
  const std::vector<double>& values = presorted.values[f];
  if (run == size) return values[0] == values[size - 1] ? run : 0;
  bool agree = values[0] == values[run - 1] && values[run - 1] < values[run] &&
               values[run] == values[size - 1];
  return agree ? run : 0;
}

// The split search of a two-valued column for one node whose `count` rows
// of the low run sum to (g_left, h_left). A node holding both values has
// exactly one candidate, between the runs, and ScanSegment evaluates it
// from these very sums: its leading run is the node's low rows in presort
// order, which is the order the lane kernel adds them in. 0.5 * (a + b)
// takes the same bits for any representatives of a and b, ±0.0 included,
// because at most one of them is zero.
TreeFitWorkspace::SplitCandidate TwoValuedCandidate(
    double g_left, double h_left, size_t count, size_t node_size,
    double g_total, double h_total, double parent_score, size_t feature,
    double threshold, const RegressionTreeOptions& options) {
  TreeFitWorkspace::SplitCandidate best;
  if (count == 0 || count == node_size) return best;
  double gain =
      SplitGain(g_left, h_left, g_total, h_total, parent_score, options);
  if (gain > 0.0) best = {gain, feature, threshold};
  return best;
}

// Keeps the larger gain, and of equal gains the lower feature: the
// candidate that a walk over the columns in ascending order with a strict
// > keeps, in whatever order the candidates arrive. A gain of 0 is no
// candidate and never replaces anything.
void Offer(const TreeFitWorkspace::SplitCandidate& candidate,
           TreeFitWorkspace::SplitCandidate* best) {
  if (candidate.gain > best->gain ||
      (candidate.gain == best->gain && candidate.gain > 0.0 &&
       candidate.feature < best->feature)) {
    *best = candidate;
  }
}

// Radius around fl(total - high-run sum) that holds a node's low-run sum
// as the lane kernel adds it (DESIGN.md §8), for a node of `rows` rows
// whose values are at most `max_abs` in magnitude: the three sums and the
// subtraction each err by at most about rows * u * rows * max_abs. +inf
// when rows * max_abs is too large (or not finite) for every partial sum
// to stay finite.
double SumSlack(size_t rows, double max_abs) {
  constexpr double kUnitRoundoff = std::numeric_limits<double>::epsilon() / 2;
  double n = static_cast<double>(rows);
  double abs_sum = n * max_abs;
  if (!(abs_sum <= std::numeric_limits<double>::max() / 8)) {
    return std::numeric_limits<double>::infinity();
  }
  return (4.0 * n + 8.0) * abs_sum * kUnitRoundoff +
         std::numeric_limits<double>::min();
}

}  // namespace

PresortedFeatures PresortedFeatures::Compute(const Matrix& x) {
  FC_CHECK_LE(x.rows(), static_cast<size_t>(UINT32_MAX));
  PresortedFeatures presorted;
  std::vector<uint32_t> base(x.rows());
  for (size_t i = 0; i < x.rows(); ++i) base[i] = static_cast<uint32_t>(i);
  presorted.order.assign(x.cols(), base);
  presorted.values.resize(x.cols());
  presorted.low_run.assign(x.cols(), 0);
  for (size_t f = 0; f < x.cols(); ++f) {
    std::sort(presorted.order[f].begin(), presorted.order[f].end(),
              [&x, f](uint32_t a, uint32_t b) {
                return x.Row(a)[f] < x.Row(b)[f];
              });
    std::vector<double>& vals = presorted.values[f];
    vals.resize(x.rows());
    for (size_t i = 0; i < x.rows(); ++i) {
      vals[i] = x.Row(presorted.order[f][i])[f];
    }
    presorted.low_run[f] = LowRunLength(vals);
  }
  return presorted;
}

Status RegressionTree::Fit(const Matrix& x, const std::vector<double>& grad,
                           const std::vector<double>& hess,
                           const std::vector<size_t>& sample_indices,
                           const RegressionTreeOptions& options) {
  // Presort just the sample rows by every feature (ascending).
  std::vector<uint32_t> rows;
  rows.reserve(sample_indices.size());
  for (size_t index : sample_indices) {
    if (index >= x.rows()) {
      return Status::InvalidArgument("sample index out of range");
    }
    rows.push_back(static_cast<uint32_t>(index));
  }
  PresortedFeatures presorted;
  presorted.order.assign(x.cols(), rows);
  for (size_t f = 0; f < x.cols(); ++f) {
    std::sort(presorted.order[f].begin(), presorted.order[f].end(),
              [&x, f](uint32_t a, uint32_t b) {
                return x.Row(a)[f] < x.Row(b)[f];
              });
  }
  return FitPresorted(x, grad, hess, sample_indices, presorted, options);
}

Status RegressionTree::FitPresorted(const Matrix& x,
                                    const std::vector<double>& grad,
                                    const std::vector<double>& hess,
                                    const std::vector<size_t>& sample_indices,
                                    const PresortedFeatures& presorted,
                                    const RegressionTreeOptions& options) {
  TreeFitWorkspace workspace;
  return FitPresorted(x, grad, hess, sample_indices, presorted, options,
                      &workspace);
}

// Level-order exact greedy construction over node-partitioned presorts
// (DESIGN.md §8). Level 0 compacts each general-path feature's sample rows
// into one segment; every later level first stably partitions the segments
// of the nodes split at the previous level into their children's segments,
// then scans the current frontier's segments. A level costs
// O(num_features * sample) with no per-row node lookups in the scan.
// Two-valued columns sum a run per node instead, and constant columns are
// skipped.
//
// Determinism contract: every level runs on the calling thread. Each
// feature scans its own segments in presort order, and the per-level
// reduction keeps the largest gain and, of equal gains, the lowest feature,
// reproducing the sequential scan's float sums and tie-breaks (lowest
// feature, then earliest scan position) bit for bit. A two-valued column
// whose short-run bound proves it cannot win a node is left out of that
// node's reduction, which cannot change the winner.
Status RegressionTree::FitPresorted(const Matrix& x,
                                    const std::vector<double>& grad,
                                    const std::vector<double>& hess,
                                    const std::vector<size_t>& sample_indices,
                                    const PresortedFeatures& presorted,
                                    const RegressionTreeOptions& options,
                                    TreeFitWorkspace* ws) {
  if (grad.size() != x.rows() || hess.size() != x.rows()) {
    return Status::InvalidArgument("gradient/hessian size mismatch");
  }
  if (sample_indices.empty()) {
    return Status::InvalidArgument("empty sample set");
  }
  if (options.max_depth < 0) {
    return Status::InvalidArgument("max_depth must be non-negative");
  }
  if (presorted.order.size() != x.cols()) {
    return Status::InvalidArgument("presort does not match matrix");
  }
  if (x.rows() > static_cast<size_t>(UINT32_MAX)) {
    return Status::InvalidArgument("too many rows for 32-bit row ids");
  }
  nodes_.clear();

  size_t num_features = x.cols();
  size_t m = sample_indices.size();
  size_t stride = m + 1;

  // Per-sample current node, indexed by absolute row id; -1 marks rows
  // outside the sample, including the sentinel past the last row that
  // clamped row ids read (tree_compress.h). The root is summed in sample
  // order.
  ws->node_of.assign(x.rows() + 1, -1);
  double g_root = 0.0;
  double h_root = 0.0;
  double g_max_abs = 0.0;
  double h_max_abs = 0.0;
  for (size_t index : sample_indices) {
    if (index >= x.rows() || ws->node_of[index] == 0) {
      return Status::InvalidArgument(
          "sample indices must be distinct rows of the matrix");
    }
    ws->node_of[index] = 0;
    g_root += grad[index];
    h_root += hess[index];
    g_max_abs = std::max(g_max_abs, std::fabs(grad[index]));
    h_max_abs = std::max(h_max_abs, std::fabs(hess[index]));
  }
  nodes_.emplace_back();
  nodes_[0].value = LeafWeight(g_root, h_root, options.lambda);

  // Interleave gradient and hessian so each scan entry touches one cache
  // line instead of two. Same doubles, added in the same places — the
  // split sums cannot change.
  // One more pair, never added, backs the lane kernel's clamped row ids.
  ws->gh.resize(2 * (x.rows() + 1));
  for (size_t i = 0; i < x.rows(); ++i) {
    ws->gh[2 * i] = grad[i];
    ws->gh[2 * i + 1] = hess[i];
  }
  ws->gh[2 * x.rows()] = 0.0;
  ws->gh[2 * x.rows() + 1] = 0.0;

  // Per-node statistics and segments, indexed by node id.
  ws->g_total.assign(1, g_root);
  ws->h_total.assign(1, h_root);
  ws->seg_begin.assign(1, 0);
  ws->seg_size.assign(1, m);
  ws->frontier.assign(1, 0);
  ws->split_parents.clear();

  // The column plan. A constant column has one value in every node, so no
  // level can find it a candidate; a two-valued one sums a run per node.
  ws->general.clear();
  ws->two_valued.clear();
  for (size_t f = 0; f < num_features; ++f) {
    size_t low = UsableLowRun(presorted, f, x.rows());
    if (low == 0) {
      ws->general.push_back(f);
      continue;
    }
    if (low == x.rows()) continue;
    const std::vector<uint32_t>& order_f = presorted.order[f];
    const std::vector<double>& values_f = presorted.values[f];
    TreeFitWorkspace::TwoValued column;
    column.feature = f;
    column.low = {order_f.data(), low};
    column.high = {order_f.data() + low, order_f.size() - low};
    column.threshold = 0.5 * (values_f[low - 1] + values_f[low]);
    column.bounded = column.high.size < column.low.size;
    ws->two_valued.push_back(column);
  }
  // Bounded columns first, so their short-run sums are one block for the
  // gain bound. Reordering the columns changes no result: each sums into
  // its own lanes, and Offer's choice is order-free.
  auto first_exact = std::stable_partition(
      ws->two_valued.begin(), ws->two_valued.end(),
      [](const TreeFitWorkspace::TwoValued& column) { return column.bounded; });
  size_t num_general = ws->general.size();
  size_t num_two_valued = ws->two_valued.size();
  size_t num_bounded =
      static_cast<size_t>(first_exact - ws->two_valued.begin());
  tree_compress::GainOptions gain_options;
  gain_options.lambda = options.lambda;
  gain_options.gamma = options.gamma;
  gain_options.min_child_weight = options.min_child_weight;
  for (int copy = 0; copy < 2; ++copy) {
    ws->rows[copy].resize(num_general * stride);
    ws->values[copy].resize(num_general * stride);
  }
  ws->short_runs.resize(num_two_valued);
  for (size_t k = 0; k < num_two_valued; ++k) {
    const TreeFitWorkspace::TwoValued& column = ws->two_valued[k];
    ws->short_runs[k] = column.bounded ? column.high : column.low;
  }
  ws->short_sums.resize(num_two_valued);
  ws->long_runs.resize(num_two_valued);
  ws->long_columns.resize(num_two_valued);
  ws->long_sums.resize(num_two_valued);
  ws->gain_upper.resize(num_bounded * tree_compress::kMaxLanes);
  uint64_t bounded = 0;
  uint64_t verified = 0;

  // The vector kernels gather node_of with signed 32-bit indices.
  bool vector = !ws->scalar_kernels_ && tree_compress::CpuHasAvx512() &&
                x.rows() <= static_cast<size_t>(INT32_MAX);
  auto* filter_feature = vector ? tree_compress::FilterFeatureAvx512
                                : tree_compress::FilterFeature;
  auto* partition_segment = vector ? tree_compress::PartitionSegmentAvx512
                                   : tree_compress::PartitionSegment;
  auto* sum_runs =
      vector ? tree_compress::SumRunsAvx512 : tree_compress::SumRuns;
  uint32_t num_rows = static_cast<uint32_t>(x.rows());
  const int32_t* node_of = ws->node_of.data();
  const double* gh = ws->gh.data();

  for (int depth = 0; depth < options.max_depth && !ws->frontier.empty();
       ++depth) {
    size_t width = ws->frontier.size();
    ws->parent_score.resize(width);
    for (size_t slot = 0; slot < width; ++slot) {
      size_t node = static_cast<size_t>(ws->frontier[slot]);
      ws->parent_score[slot] =
          ScoreHalf(ws->g_total[node], ws->h_total[node], options.lambda);
    }
    ws->best.assign(width, {});

    // General-path columns: filter or partition, then scan. Column g owns
    // the g-th segment stride of each copy.
    int copy = depth & 1;
    for (size_t g = 0; g < num_general; ++g) {
      size_t f = ws->general[g];
      uint32_t* rows_f = ws->rows[copy].data() + g * stride;
      double* values_f = ws->values[copy].data() + g * stride;
      if (depth == 0) {
        const std::vector<uint32_t>& order_f = presorted.order[f];
        bool has_values = f < presorted.values.size() &&
                          presorted.values[f].size() == order_f.size();
        // The run skips rely on ascending values; NaN fails <= too.
        bool sorted = true;
        size_t kept = filter_feature(
            order_f.data(), order_f.size(),
            has_values ? presorted.values[f].data() : nullptr, node_of,
            num_rows, m, rows_f, values_f, &sorted);
        if (kept != m) {
          return Status::InvalidArgument("presort misses sample rows");
        }
        if (!has_values) {
          for (size_t i = 0; i < m; ++i) {
            values_f[i] = x.Row(rows_f[i])[f];
            sorted &= i == 0 || values_f[i - 1] <= values_f[i];
          }
        }
        if (!sorted) {
          return Status::InvalidArgument(
              "presort values must be ascending and not NaN");
        }
      } else {
        const uint32_t* from_rows = ws->rows[copy ^ 1].data() + g * stride;
        const double* from_values = ws->values[copy ^ 1].data() + g * stride;
        for (int parent : ws->split_parents) {
          const Node& node = nodes_[static_cast<size_t>(parent)];
          size_t offset = ws->seg_begin[static_cast<size_t>(parent)];
          partition_segment(from_rows + offset, from_values + offset,
                            ws->seg_size[static_cast<size_t>(parent)],
                            ws->seg_size[static_cast<size_t>(node.left)],
                            node_of, node.right, rows_f + offset,
                            values_f + offset);
        }
      }
      for (size_t slot = 0; slot < width; ++slot) {
        size_t node = static_cast<size_t>(ws->frontier[slot]);
        size_t offset = ws->seg_begin[node];
        Offer(ScanSegment(rows_f + offset, values_f + offset,
                          ws->seg_size[node], gh, ws->g_total[node],
                          ws->h_total[node], ws->parent_score[slot], f,
                          options),
              &ws->best[slot]);
      }
    }

    // Two-valued columns, a pass of up to kMaxLanes frontier nodes at a
    // time. The frontier's node ids are consecutive (each split appends its
    // two children), so a pass's lane k is frontier slot pass + k. Each
    // column first sums its short run. Where that is its low run the
    // candidate is exact. Otherwise the low run's sums are the node's
    // totals minus the high run's, within a rounding slack, which bounds
    // the column's gain; the column streams its low run exactly only when
    // some lane's upper bound reaches the largest gain proven in that lane.
    ws->verified.assign(num_bounded, 0);
    for (size_t pass = 0; num_two_valued > 0 && pass < width;
         pass += tree_compress::kMaxLanes) {
      size_t lanes = std::min(tree_compress::kMaxLanes, width - pass);
      ws->lane_pass.first = ws->frontier[pass];
      ws->lane_pass.width = lanes;
      if (vector) tree_compress::BuildLaneMasks(node_of, num_rows,
                                                &ws->lane_pass);
      sum_runs(ws->short_runs.data(), num_two_valued, node_of, num_rows, gh,
               ws->lane_pass, ws->short_sums.data());
      // Offers a column's exact candidate, from its low run's sums, in
      // every lane of the pass.
      auto offer_exact = [&](const TreeFitWorkspace::TwoValued& column,
                             const tree_compress::LaneSums& sums) {
        for (size_t lane = 0; lane < lanes; ++lane) {
          size_t slot = pass + lane;
          size_t node = static_cast<size_t>(ws->frontier[slot]);
          Offer(TwoValuedCandidate(sums.g(lane), sums.h(lane),
                                   sums.rows(lane), ws->seg_size[node],
                                   ws->g_total[node], ws->h_total[node],
                                   ws->parent_score[slot], column.feature,
                                   column.threshold, options),
                &ws->best[slot]);
        }
      };
      for (size_t k = num_bounded; k < num_two_valued; ++k) {
        offer_exact(ws->two_valued[k], ws->short_sums[k]);
      }
      // The largest gain proven per lane: every exact candidate so far,
      // raised by every certified lower bound.
      tree_compress::LaneNodes lane_nodes = {};
      double proven[tree_compress::kMaxLanes] = {};
      for (size_t lane = 0; lane < lanes; ++lane) {
        size_t slot = pass + lane;
        size_t node = static_cast<size_t>(ws->frontier[slot]);
        size_t size = ws->seg_size[node];
        lane_nodes.g_total[lane] = ws->g_total[node];
        lane_nodes.h_total[lane] = ws->h_total[node];
        lane_nodes.g_slack[lane] = SumSlack(size, g_max_abs);
        lane_nodes.h_slack[lane] = SumSlack(size, h_max_abs);
        lane_nodes.parent_score[lane] = ws->parent_score[slot];
        lane_nodes.size[lane] = static_cast<double>(size);
        proven[lane] = ws->best[slot].gain;
      }
      tree_compress::BoundGains(ws->short_sums.data(), num_bounded,
                                lane_nodes, gain_options, proven,
                                ws->gain_upper.data());
      // A column stays out of a lane's reduction when its upper bound is at
      // most 0 (a candidate needs gain > 0) or below the proven gain there;
      // it streams its low run when any lane keeps it.
      size_t num_long = 0;
      for (size_t k = 0; k < num_bounded; ++k) {
        const double* upper =
            ws->gain_upper.data() + k * tree_compress::kMaxLanes;
        bool needed = false;
        for (size_t lane = 0; lane < lanes; ++lane) {
          needed |= !(upper[lane] <= 0.0 || upper[lane] < proven[lane]);
        }
        if (!needed) continue;
        ws->long_runs[num_long] = ws->two_valued[k].low;
        ws->long_columns[num_long] = k;
        ++num_long;
        ws->verified[k] = 1;
      }
      sum_runs(ws->long_runs.data(), num_long, node_of, num_rows, gh,
               ws->lane_pass, ws->long_sums.data());
      for (size_t j = 0; j < num_long; ++j) {
        offer_exact(ws->two_valued[ws->long_columns[j]], ws->long_sums[j]);
      }
    }
    if (num_two_valued > 0) {
      bounded += num_bounded;
      for (size_t k = 0; k < num_bounded; ++k) verified += ws->verified[k];
    }

    // Materialize the accepted splits and re-assign samples to children.
    ws->next_frontier.clear();
    ws->split_parents.clear();
    for (size_t slot = 0; slot < width; ++slot) {
      const TreeFitWorkspace::SplitCandidate& best = ws->best[slot];
      if (best.gain <= 0.0) continue;  // stays a leaf
      size_t node_id = static_cast<size_t>(ws->frontier[slot]);
      int left = static_cast<int>(nodes_.size());
      nodes_.emplace_back();
      int right = static_cast<int>(nodes_.size());
      nodes_.emplace_back();
      Node& parent = nodes_[node_id];
      parent.is_leaf = false;
      parent.feature = best.feature;
      parent.threshold = best.threshold;
      parent.left = left;
      parent.right = right;
      ws->next_frontier.push_back(left);
      ws->next_frontier.push_back(right);
      ws->split_parents.push_back(ws->frontier[slot]);
    }
    if (ws->next_frontier.empty()) break;
    ws->g_total.resize(nodes_.size(), 0.0);
    ws->h_total.resize(nodes_.size(), 0.0);
    ws->seg_begin.resize(nodes_.size(), 0);
    ws->seg_size.resize(nodes_.size(), 0);

    for (size_t index : sample_indices) {
      int node = ws->node_of[index];
      if (node < 0) continue;
      const Node& parent = nodes_[static_cast<size_t>(node)];
      if (parent.is_leaf) continue;
      // PredictOne's `<` routing as an add (right == left + 1): the
      // compiler emits a plain select here as a branch, which mispredicts
      // on about half the rows.
      bool go_right = !(x.Row(index)[parent.feature] < parent.threshold);
      int child = parent.left + static_cast<int>(go_right);
      size_t child_id = static_cast<size_t>(child);
      ws->node_of[index] = child;
      ws->g_total[child_id] += grad[index];
      ws->h_total[child_id] += hess[index];
      ++ws->seg_size[child_id];
    }
    for (int parent : ws->split_parents) {
      const Node& node = nodes_[static_cast<size_t>(parent)];
      size_t left = static_cast<size_t>(node.left);
      size_t right = static_cast<size_t>(node.right);
      ws->seg_begin[left] = ws->seg_begin[static_cast<size_t>(parent)];
      ws->seg_begin[right] = ws->seg_begin[left] + ws->seg_size[left];
    }
    for (int child : ws->next_frontier) {
      size_t child_id = static_cast<size_t>(child);
      nodes_[child_id].value = LeafWeight(ws->g_total[child_id],
                                          ws->h_total[child_id],
                                          options.lambda);
    }
    std::swap(ws->frontier, ws->next_frontier);
  }
  ws->split_bounded_ += bounded;
  ws->split_verified_ += verified;
  return Status::OK();
}

double RegressionTree::PredictOne(const double* row) const {
  FC_CHECK(!nodes_.empty());
  int node = 0;
  while (!nodes_[static_cast<size_t>(node)].is_leaf) {
    const Node& n = nodes_[static_cast<size_t>(node)];
    // right == left + 1: an add instead of a mispredicting branch.
    node = n.left + static_cast<int>(!(row[n.feature] < n.threshold));
  }
  return nodes_[static_cast<size_t>(node)].value;
}

size_t RegressionTree::num_leaves() const {
  size_t count = 0;
  for (const Node& node : nodes_) {
    if (node.is_leaf) ++count;
  }
  return count;
}

}  // namespace fairclean
