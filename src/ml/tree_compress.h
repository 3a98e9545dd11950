#ifndef FAIRCLEAN_ML_TREE_COMPRESS_H_
#define FAIRCLEAN_ML_TREE_COMPRESS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fairclean {
namespace tree_compress {

// The kernels of RegressionTree::FitPresorted (DESIGN.md §8). The filter
// and the partition are stable compresses: they copy (row id, value) pairs
// and compare, and do no float arithmetic. The lane kernel sums the
// rows of a two-valued column's value run per frontier node, and the gain
// bound kernel brackets a column's split gain from such sums. Each has a
// scalar form, which is the portable fallback and the test oracle, and an
// AVX-512 form that writes the same bytes to every slot the contracts below
// define.
//
// `node_of` is indexed by row id and holds one extra entry past the last
// row, node_of[num_rows] = -1, so a row id clamped to num_rows reads as
// "not sampled" and every lookup stays in bounds.

/// True when the CPU runs the AVX-512 F/VL/DQ kernels. Probed once.
bool CpuHasAvx512();

/// Level-0 filter of one presorted feature: keeps, in presort order, the
/// rows with node_of[min(row, num_rows)] >= 0. Writes only the slots
/// [0, limit] of the outputs and returns the kept count, or limit + 1 as
/// soon as more than `limit` rows are kept. The first min(count, limit + 1)
/// slots then hold the kept rows (and their values when `values` is not
/// null); the slots after them are scratch. With `values`, *sorted reports
/// whether the visited values ascend (a NaN fails); without, it is left
/// untouched.
size_t FilterFeature(const uint32_t* order, size_t size, const double* values,
                     const int32_t* node_of, uint32_t num_rows, size_t limit,
                     uint32_t* out_rows, double* out_values, bool* sorted);
size_t FilterFeatureAvx512(const uint32_t* order, size_t size,
                           const double* values, const int32_t* node_of,
                           uint32_t num_rows, size_t limit, uint32_t* out_rows,
                           double* out_values, bool* sorted);

/// Stable partition of one node segment (values ascending, every row
/// sampled) into its children's segments: rows with node_of[row] == right
/// go after the `left_size` left rows. The run of the segment's largest
/// value is not partitioned: no later scan or partition reads its rows, so
/// its slots only get the value. Writes only the slots [0, size) of the
/// outputs; every value slot is defined, and so is every row slot outside
/// that run's share of each child (the last slots of each side).
void PartitionSegment(const uint32_t* rows, const double* values, size_t size,
                      size_t left_size, const int32_t* node_of, int32_t right,
                      uint32_t* out_rows, double* out_values);
void PartitionSegmentAvx512(const uint32_t* rows, const double* values,
                            size_t size, size_t left_size,
                            const int32_t* node_of, int32_t right,
                            uint32_t* out_rows, double* out_values);

/// Most frontier nodes one lane pass sums; wider frontiers take passes.
inline constexpr size_t kMaxLanes = 8;

/// A run of presort row ids: one of the two value runs of a two-valued
/// column's order.
struct Run {
  const uint32_t* order = nullptr;
  size_t size = 0;
};

/// Per-lane sums of one run, in the layout the vector kernel adds into:
/// lane k's gradient sum at gh[2k] and hessian sum at gh[2k + 1], its row
/// count at count[2k] and again at count[2k + 1]. Lanes at or past the
/// pass's width stay 0.
struct LaneSums {
  double gh[2 * kMaxLanes];
  uint32_t count[2 * kMaxLanes];

  double g(size_t lane) const { return gh[2 * lane]; }
  double h(size_t lane) const { return gh[2 * lane + 1]; }
  uint32_t rows(size_t lane) const { return count[2 * lane]; }
};

/// The nodes one lane pass sums: lane k is node first + k, for k < width
/// (at most kMaxLanes). The AVX-512 kernel reads each row's lane from
/// `masks`, one entry per row id and one for the sentinel row, which
/// BuildLaneMasks fills once per pass for every kernel call of that pass;
/// the scalar kernel reads node_of and leaves `masks` alone.
struct LanePass {
  int32_t first = 0;
  size_t width = 0;
  std::vector<uint16_t> masks;
};

/// Fills pass->masks from node_of[0, num_rows] for pass->first and
/// pass->width: bits 2k and 2k + 1 for a row of lane k, none for any other
/// row.
void BuildLaneMasks(const int32_t* node_of, uint32_t num_rows,
                    LanePass* pass);

/// Gain kernel inputs: the nodes of one lane pass. Lane k holds node
/// first + k's gradient and hessian totals, the slack of a sum over its
/// rows (the radius around total - high-run sum that is certain to hold
/// its low run's sum as SumRuns adds it), its parent score and its row
/// count. Lanes at or past the pass's width hold zeros.
struct LaneNodes {
  double g_total[kMaxLanes];
  double h_total[kMaxLanes];
  double g_slack[kMaxLanes];
  double h_slack[kMaxLanes];
  double parent_score[kMaxLanes];
  double size[kMaxLanes];
};

/// The split options a gain depends on (RegressionTreeOptions).
struct GainOptions {
  double lambda = 0.0;
  double gamma = 0.0;
  double min_child_weight = 0.0;
};

/// The last step of a split's gain, from its children's score halves:
/// shared by the fit's gains and both gain kernels, so they round alike.
inline double GainOfHalves(double left_half, double right_half,
                           double parent_score, double gamma) {
  return 0.5 * (left_half + right_half - parent_score) - gamma;
}

/// Gain bound kernel: for each of the `num_sums` high-run sums of a
/// two-valued column, bounds per lane what the fit's SplitGain returns for
/// the node's low-run sums, which lie within the nodes' slack of total -
/// high-run sum (DESIGN.md §8). Each bound step applies the gain's own
/// IEEE operation to the ends of its operands' ranges; the exact result is
/// monotone in each operand and rounding to nearest keeps that order, so
/// the rounded gain for any sums in range lies between the two ends. Lane
/// k of sums r gets upper[r * kMaxLanes + k] and raises proven[k] to its
/// lower bound. A lane whose node holds one value (no high row, or only
/// high rows) or whose hessian ranges all fail min_child_weight gets the
/// bounds [0, 0]: it has no candidate. A lane whose inputs or bounds are
/// not finite, whose hessian range straddles min_child_weight or whose
/// denominator range is not positive gets [-inf, +inf].
void BoundGains(const LaneSums* sums, size_t num_sums, const LaneNodes& nodes,
                const GainOptions& options, double* proven, double* upper);

/// Lane kernel: for each of the `num_runs` runs, streams its row ids once
/// and adds each row's gradient gh[2 * row] and hessian gh[2 * row + 1]
/// into lane node_of[min(row, num_rows)] - pass.first, counting the rows
/// per lane. A row whose lane falls outside [0, pass.width) (outside the
/// sample, in an earlier leaf, past this pass's nodes) or whose id is at
/// least num_rows adds nothing. Every lane's sums start at +0.0 and add
/// its rows one at a time in run order, so they are bit-equal to summing
/// that node's rows of the run in a plain loop. `gh` holds num_rows + 1
/// pairs: the vector form reads the last one for the row ids it clamps,
/// under an all-zero mask, and needs pass.masks built for this node_of.
/// Every byte of `sums` is written.
void SumRuns(const Run* runs, size_t num_runs, const int32_t* node_of,
             uint32_t num_rows, const double* gh, const LanePass& pass,
             LaneSums* sums);
void SumRunsAvx512(const Run* runs, size_t num_runs, const int32_t* node_of,
                   uint32_t num_rows, const double* gh, const LanePass& pass,
                   LaneSums* sums);

}  // namespace tree_compress
}  // namespace fairclean

#endif  // FAIRCLEAN_ML_TREE_COMPRESS_H_
