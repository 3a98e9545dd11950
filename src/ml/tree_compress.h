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
// low-value run of a two-valued column per frontier node. Each has a
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

/// One two-valued column's low-value run: the presort row ids of the rows
/// holding its smaller value.
struct LowRun {
  const uint32_t* order = nullptr;
  size_t size = 0;
};

/// Per-lane sums of one low run, in the layout the vector kernel adds
/// into: lane k's gradient sum at gh[2k] and hessian sum at gh[2k + 1],
/// its row count at count[2k] and again at count[2k + 1]. Lanes at or past
/// the pass's width stay 0.
struct LaneSums {
  double gh[2 * kMaxLanes];
  uint32_t count[2 * kMaxLanes];

  double g(size_t lane) const { return gh[2 * lane]; }
  double h(size_t lane) const { return gh[2 * lane + 1]; }
  uint32_t rows(size_t lane) const { return count[2 * lane]; }
};

/// Scratch of the AVX-512 lane kernel, rebuilt by every call: a lane mask
/// per row id. Reusing one across calls saves the allocation; the scalar
/// form does not touch it.
struct LaneScratch {
  std::vector<uint16_t> masks;
};

/// Lane kernel: for each of the `num_runs` runs, streams its row ids once
/// and adds each row's gradient gh[2 * row] and hessian gh[2 * row + 1]
/// into lane node_of[min(row, num_rows)] - first, counting the rows per
/// lane. A row whose lane falls outside [0, width) (outside the sample, in
/// an earlier leaf, past this pass's nodes) or whose id is at least
/// num_rows adds nothing. `width` is at most kMaxLanes. Every lane's sums
/// start at +0.0 and add its rows one at a time in run order, so they are
/// bit-equal to summing that node's rows of the run in a plain loop.
/// `gh` holds num_rows + 1 pairs: the vector form reads the last one for
/// the row ids it clamps, under an all-zero mask. Every byte of `sums` is
/// written.
void SumLowRuns(const LowRun* runs, size_t num_runs, const int32_t* node_of,
                uint32_t num_rows, const double* gh, int32_t first,
                size_t width, LaneScratch* scratch, LaneSums* sums);
void SumLowRunsAvx512(const LowRun* runs, size_t num_runs,
                      const int32_t* node_of, uint32_t num_rows,
                      const double* gh, int32_t first, size_t width,
                      LaneScratch* scratch, LaneSums* sums);

}  // namespace tree_compress
}  // namespace fairclean

#endif  // FAIRCLEAN_ML_TREE_COMPRESS_H_
