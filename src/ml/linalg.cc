#include "ml/linalg.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define FAIRCLEAN_X86_PANEL_KERNELS 1
#endif

namespace fairclean {

void SquaredDistancesToRow(const Matrix& train, const double* query,
                           double* out) {
  size_t d = train.cols();
  for (size_t t = 0; t < train.rows(); ++t) {
    const double* row = train.Row(t);
    double sq = 0.0;
    for (size_t j = 0; j < d; ++j) {
      double diff = query[j] - row[j];
      sq += diff * diff;
    }
    out[t] = sq;
  }
}

namespace {

#ifdef FAIRCLEAN_X86_PANEL_KERNELS

// Pack train rows into panel-major layout: packed[(t / width) * d * width +
// j * width + t % width] = feature j of train row t, zero-padded past the
// last row. Pure data movement, amortized over every query of the block;
// the padding lanes compute garbage distances that are never copied out.
void PackPanels(const Matrix& train, size_t width,
                std::vector<double>* packed) {
  size_t n = train.rows();
  size_t d = train.cols();
  size_t num_panels = (n + width - 1) / width;
  packed->assign(num_panels * d * width, 0.0);
  for (size_t t = 0; t < n; ++t) {
    const double* row = train.Row(t);
    double* dst = packed->data() + (t / width) * d * width + t % width;
    for (size_t j = 0; j < d; ++j) dst[j * width] = row[j];
  }
}

// AVX2 panel kernel: 16 train rows per panel, four 4-wide accumulators.
// Only sub/mul/add — target("avx2") cannot contract into FMA, and AVX2
// lanes perform the same IEEE double ops as scalar code, so each pair's
// feature-ascending sum is bit-equal to the reference loop. The lane width
// changes only WHICH pairs compute simultaneously, never the order of
// operations inside a pair.
__attribute__((target("avx2"))) void PanelKernelAvx2(
    const double* packed, const double* query, size_t d, size_t num_panels,
    size_t n_train, double* out_row) {
  for (size_t p = 0; p < num_panels; ++p) {
    const double* panel = packed + p * d * 16;
    __m256d a0 = _mm256_setzero_pd();
    __m256d a1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd();
    __m256d a3 = _mm256_setzero_pd();
    for (size_t j = 0; j < d; ++j) {
      __m256d qj = _mm256_broadcast_sd(query + j);
      const double* col = panel + j * 16;
      __m256d d0 = _mm256_sub_pd(qj, _mm256_loadu_pd(col));
      __m256d d1 = _mm256_sub_pd(qj, _mm256_loadu_pd(col + 4));
      __m256d d2 = _mm256_sub_pd(qj, _mm256_loadu_pd(col + 8));
      __m256d d3 = _mm256_sub_pd(qj, _mm256_loadu_pd(col + 12));
      a0 = _mm256_add_pd(a0, _mm256_mul_pd(d0, d0));
      a1 = _mm256_add_pd(a1, _mm256_mul_pd(d1, d1));
      a2 = _mm256_add_pd(a2, _mm256_mul_pd(d2, d2));
      a3 = _mm256_add_pd(a3, _mm256_mul_pd(d3, d3));
    }
    double acc[16];
    _mm256_storeu_pd(acc, a0);
    _mm256_storeu_pd(acc + 4, a1);
    _mm256_storeu_pd(acc + 8, a2);
    _mm256_storeu_pd(acc + 12, a3);
    size_t base = p * 16;
    size_t live = std::min<size_t>(16, n_train - base);
    for (size_t v = 0; v < live; ++v) out_row[base + v] = acc[v];
  }
}

// SSE2 fallback (baseline x86-64): 8 rows per panel, four 2-wide
// accumulators. Same per-pair operation order as the AVX2 kernel and the
// scalar reference, hence the same bits.
void PanelKernelSse2(const double* packed, const double* query, size_t d,
                     size_t num_panels, size_t n_train, double* out_row) {
  for (size_t p = 0; p < num_panels; ++p) {
    const double* panel = packed + p * d * 8;
    __m128d a0 = _mm_setzero_pd();
    __m128d a1 = _mm_setzero_pd();
    __m128d a2 = _mm_setzero_pd();
    __m128d a3 = _mm_setzero_pd();
    for (size_t j = 0; j < d; ++j) {
      __m128d qj = _mm_set1_pd(query[j]);
      const double* col = panel + j * 8;
      __m128d d0 = _mm_sub_pd(qj, _mm_loadu_pd(col));
      __m128d d1 = _mm_sub_pd(qj, _mm_loadu_pd(col + 2));
      __m128d d2 = _mm_sub_pd(qj, _mm_loadu_pd(col + 4));
      __m128d d3 = _mm_sub_pd(qj, _mm_loadu_pd(col + 6));
      a0 = _mm_add_pd(a0, _mm_mul_pd(d0, d0));
      a1 = _mm_add_pd(a1, _mm_mul_pd(d1, d1));
      a2 = _mm_add_pd(a2, _mm_mul_pd(d2, d2));
      a3 = _mm_add_pd(a3, _mm_mul_pd(d3, d3));
    }
    double acc[8];
    _mm_storeu_pd(acc, a0);
    _mm_storeu_pd(acc + 2, a1);
    _mm_storeu_pd(acc + 4, a2);
    _mm_storeu_pd(acc + 6, a3);
    size_t base = p * 8;
    size_t live = std::min<size_t>(8, n_train - base);
    for (size_t v = 0; v < live; ++v) out_row[base + v] = acc[v];
  }
}

bool CpuHasAvx2() {
  static const bool has_avx2 = __builtin_cpu_supports("avx2") != 0;
  return has_avx2;
}

#endif  // FAIRCLEAN_X86_PANEL_KERNELS

}  // namespace

void PackTrainPanels(const Matrix& train, PackedPanels* packed) {
  packed->n_train = train.rows();
#ifdef FAIRCLEAN_X86_PANEL_KERNELS
  packed->width = CpuHasAvx2() ? 16 : 8;
  packed->num_panels = (train.rows() + packed->width - 1) / packed->width;
  PackPanels(train, packed->width, &packed->data);
#else
  packed->width = 0;
  packed->num_panels = 0;
  packed->data.clear();
#endif
}

void BlockedSquaredDistancesPacked(const Matrix& queries, size_t query_begin,
                                   size_t query_end, const Matrix& train,
                                   const PackedPanels& packed, double* out) {
  FC_CHECK_EQ(queries.cols(), train.cols());
  FC_CHECK(query_begin <= query_end && query_end <= queries.rows());
  FC_CHECK_EQ(packed.n_train, train.rows());
  size_t n_train = train.rows();
  size_t d = train.cols();
#ifdef FAIRCLEAN_X86_PANEL_KERNELS
  // Register-blocked panel kernel. The reference loop is latency-bound: one
  // accumulator per pair serializes every add. Processing a panel of train
  // rows at once gives one independent accumulator per row held in vector
  // registers, so the adds pipeline — while each pair still sums its
  // squares alone, feature-ascending, exactly like the reference. The
  // kernels are hand-written intrinsics because GCC's autovectorizer turns
  // the equivalent scalar panel loop into a cross-lane shuffle storm that
  // is slower than the naive code.
  for (size_t q = query_begin; q < query_end; ++q) {
    const double* query = queries.Row(q);
    double* out_row = out + (q - query_begin) * n_train;
    if (packed.width == 16) {
      PanelKernelAvx2(packed.data.data(), query, d, packed.num_panels,
                      n_train, out_row);
    } else {
      PanelKernelSse2(packed.data.data(), query, d, packed.num_panels,
                      n_train, out_row);
    }
  }
#else
  // Portable fallback: the reference kernel per query (already the exact
  // accumulation order, just without the panel pipelining).
  (void)d;
  for (size_t q = query_begin; q < query_end; ++q) {
    SquaredDistancesToRow(train, queries.Row(q),
                          out + (q - query_begin) * n_train);
  }
#endif
}

Result<std::vector<double>> SolveCholesky(const std::vector<double>& a,
                                          const std::vector<double>& b,
                                          size_t n) {
  FC_CHECK_EQ(a.size(), n * n);
  FC_CHECK_EQ(b.size(), n);
  // Lower-triangular factor L with A = L L^T.
  std::vector<double> l(n * n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j <= i; ++j) {
      double sum = a[i * n + j];
      for (size_t k = 0; k < j; ++k) sum -= l[i * n + k] * l[j * n + k];
      if (i == j) {
        if (sum <= 0.0 || !std::isfinite(sum)) {
          return Status::InvalidArgument("matrix not positive definite");
        }
        l[i * n + i] = std::sqrt(sum);
      } else {
        l[i * n + j] = sum / l[j * n + j];
      }
    }
  }
  // Forward substitution: L z = b.
  std::vector<double> z(n);
  for (size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (size_t k = 0; k < i; ++k) sum -= l[i * n + k] * z[k];
    z[i] = sum / l[i * n + i];
  }
  // Back substitution: L^T x = z.
  std::vector<double> x(n);
  for (size_t ii = n; ii > 0; --ii) {
    size_t i = ii - 1;
    double sum = z[i];
    for (size_t k = i + 1; k < n; ++k) sum -= l[k * n + i] * x[k];
    x[i] = sum / l[i * n + i];
  }
  return x;
}

Result<std::vector<double>> SolveCholeskyWithJitter(std::vector<double> a,
                                                    const std::vector<double>& b,
                                                    size_t n) {
  double jitter = 0.0;
  for (int attempt = 0; attempt < 8; ++attempt) {
    if (attempt > 0) {
      double add = (jitter == 0.0) ? 1e-8 : jitter * 9.0;
      for (size_t i = 0; i < n; ++i) a[i * n + i] += add;
      jitter += add;
    }
    Result<std::vector<double>> solved = SolveCholesky(a, b, n);
    if (solved.ok()) return solved;
  }
  return Status::InvalidArgument(
      "matrix not positive definite even with jitter");
}

}  // namespace fairclean
