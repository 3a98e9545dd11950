#ifndef FAIRCLEAN_ML_LINALG_H_
#define FAIRCLEAN_ML_LINALG_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "ml/matrix.h"

namespace fairclean {

/// Reference scalar kernel: out[t] = squared Euclidean distance from
/// `query` (train.cols() doubles) to train row t, accumulated in ascending
/// feature order with one accumulator per pair — the exact loop of the
/// pre-blocking kNN implementation. Kept as the bit-identity oracle for
/// BlockedSquaredDistancesPacked.
void SquaredDistancesToRow(const Matrix& train, const double* query,
                           double* out);

/// Panel-major packing of a train matrix, reusable across query blocks
/// (pack once, sweep many query tiles). `width == 0` marks the portable
/// build, where no packing exists and the packed entry point falls back to
/// the reference kernel.
struct PackedPanels {
  size_t width = 0;
  size_t num_panels = 0;
  size_t n_train = 0;
  std::vector<double> data;
};

/// Packs `train` once for BlockedSquaredDistancesPacked.
void PackTrainPanels(const Matrix& train, PackedPanels* packed);

/// Cache-blocked, query-tiled squared-distance kernel: for every query row
/// q in [query_begin, query_end) fills
///   out[(q - query_begin) * train.rows() + t]
/// with the squared Euclidean distance to train row t. `packed` must have
/// been built from `train` by PackTrainPanels.
///
/// The packed panels let the inner loop keep one independent accumulator
/// per panel row in vector registers (breaking the reference loop's add
/// latency chain) while every pair still accumulates its squares in the
/// same ascending feature order as SquaredDistancesToRow. The blocking
/// reorders only WHICH pair is computed when — never the float sums inside
/// a pair — so every distance is bit-equal to the reference kernel (no
/// norm-trick expansion).
void BlockedSquaredDistancesPacked(const Matrix& queries, size_t query_begin,
                                   size_t query_end, const Matrix& train,
                                   const PackedPanels& packed, double* out);

/// Solves A x = b for a symmetric positive-definite matrix A (row-major,
/// n x n) via Cholesky decomposition. Fails if A is not positive definite.
Result<std::vector<double>> SolveCholesky(const std::vector<double>& a,
                                          const std::vector<double>& b,
                                          size_t n);

/// Like SolveCholesky but retries with increasing diagonal jitter when the
/// matrix is (numerically) singular; intended for Newton steps where a tiny
/// ridge does not change the optimum meaningfully.
Result<std::vector<double>> SolveCholeskyWithJitter(std::vector<double> a,
                                                    const std::vector<double>& b,
                                                    size_t n);

}  // namespace fairclean

#endif  // FAIRCLEAN_ML_LINALG_H_
