#ifndef FAIRCLEAN_ML_TREE_COMPRESS_H_
#define FAIRCLEAN_ML_TREE_COMPRESS_H_

#include <cstddef>
#include <cstdint>

namespace fairclean {
namespace tree_compress {

// The two data-movement kernels of RegressionTree::FitPresorted (DESIGN.md
// §8). Both are stable compresses: they copy (row id, value) pairs and
// compare, and do no float arithmetic. Each has a branchless scalar form,
// which is the portable fallback and the test oracle, and an AVX-512 form
// that writes the same bytes to every slot the contracts below define.
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

}  // namespace tree_compress
}  // namespace fairclean

#endif  // FAIRCLEAN_ML_TREE_COMPRESS_H_
