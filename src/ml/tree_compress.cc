#include "ml/tree_compress.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define FAIRCLEAN_X86_COMPRESS_KERNELS 1
#endif

namespace fairclean {
namespace tree_compress {

namespace {

// Cursor of a filter pass, shared by the scalar loop and the vector loop
// it finishes, so a vector pass hands over mid-stream without a seam.
struct FilterCursor {
  size_t i = 0;
  size_t count = 0;
  bool ascending = true;
};

// Branchless scalar filter from cursor->i on: every entry is written, but
// the cursor advances only for kept rows, so the kept rows stay in presort
// order without a mispredicted branch per row (membership is effectively
// random). The unconditional write after the last kept row is why the
// outputs need slot `limit`.
void FilterFrom(const uint32_t* order, size_t size, const double* values,
                const int32_t* node_of, uint32_t num_rows, size_t limit,
                uint32_t* out_rows, double* out_values,
                FilterCursor* cursor) {
  size_t i = cursor->i;
  size_t count = cursor->count;
  if (values != nullptr) {
    bool ascending = cursor->ascending;
    double previous = size > 0 ? values[i > 0 ? i - 1 : 0] : 0.0;
    for (; i < size && count <= limit; ++i) {
      uint32_t row = order[i];
      double value = values[i];
      out_rows[count] = row;
      out_values[count] = value;
      ascending &= previous <= value;
      previous = value;
      count += static_cast<size_t>(node_of[std::min(row, num_rows)] >= 0);
    }
    cursor->ascending = ascending;
  } else {
    for (; i < size && count <= limit; ++i) {
      uint32_t row = order[i];
      out_rows[count] = row;
      count += static_cast<size_t>(node_of[std::min(row, num_rows)] >= 0);
    }
  }
  cursor->i = i;
  cursor->count = count;
}

// First slot of the run of the segment's largest value.
size_t TrailingRunStart(const double* values, size_t size) {
  double largest = values[size - 1];
  size_t trailing = size - 1;
  while (trailing > 0 && values[trailing - 1] == largest) --trailing;
  return trailing;
}

// Branchless scalar partition of entries [begin, end): one write per
// entry, to a slot picked by mask arithmetic, so the loop has no
// data-dependent branch.
void PartitionRange(const uint32_t* rows, const double* values, size_t begin,
                    size_t end, const int32_t* node_of, int32_t right,
                    uint32_t* out_rows, double* out_values, size_t* left_slot,
                    size_t* right_slot) {
  size_t left = *left_slot;
  size_t right_at = *right_slot;
  for (size_t i = begin; i < end; ++i) {
    uint32_t row = rows[i];
    size_t to_right = static_cast<size_t>(node_of[row] == right);
    size_t mask = 0 - to_right;
    size_t slot = (right_at & mask) | (left & ~mask);
    out_rows[slot] = row;
    out_values[slot] = values[i];
    left += 1 - to_right;
    right_at += to_right;
  }
  *left_slot = left;
  *right_slot = right_at;
}

// Gives each child's share of the trailing run its value.
void FillTrailingRun(double largest, size_t left_slot, size_t left_size,
                     size_t right_slot, size_t size, double* out_values) {
  std::fill(out_values + left_slot, out_values + left_size, largest);
  std::fill(out_values + right_slot, out_values + size, largest);
}

// fl(x * x) over x in [lo, hi]: the square grows with |x|, and rounding to
// nearest keeps that order.
void SquareBounds(double lo, double hi, double* sq_lo, double* sq_hi) {
  double a = lo * lo;
  double b = hi * hi;
  if (lo >= 0.0) {
    *sq_lo = a;
    *sq_hi = b;
  } else if (hi <= 0.0) {
    *sq_lo = b;
    *sq_hi = a;
  } else {
    *sq_lo = 0.0;
    *sq_hi = a > b ? a : b;
  }
}

// One lane of BoundGains.
void BoundLane(double g_high, double h_high, double high, size_t lane,
               const LaneNodes& nodes, const GainOptions& options,
               double* lower, double* upper) {
  const double inf = std::numeric_limits<double>::infinity();
  *lower = 0.0;
  *upper = 0.0;
  if (!(high > 0.0 && high < nodes.size[lane])) return;
  double g_total = nodes.g_total[lane];
  double h_total = nodes.h_total[lane];
  double g_low = g_total - g_high;
  double h_low = h_total - h_high;
  double g_lo = g_low - nodes.g_slack[lane];
  double g_hi = g_low + nodes.g_slack[lane];
  double h_lo = h_low - nodes.h_slack[lane];
  double h_hi = h_low + nodes.h_slack[lane];
  *lower = -inf;
  *upper = inf;
  if (!(std::isfinite(g_total) && std::isfinite(h_total) &&
        std::isfinite(g_lo) && std::isfinite(g_hi) && std::isfinite(h_lo) &&
        std::isfinite(h_hi))) {
    return;
  }
  double mcw = options.min_child_weight;
  double hr_lo = h_total - h_hi;
  double hr_hi = h_total - h_lo;
  if (!(h_hi >= mcw && hr_hi >= mcw)) {
    *lower = 0.0;
    *upper = 0.0;
    return;
  }
  if (!(h_lo >= mcw && hr_lo >= mcw)) return;
  double dl_lo = h_lo + options.lambda;
  double dl_hi = h_hi + options.lambda;
  double dr_lo = hr_lo + options.lambda;
  double dr_hi = hr_hi + options.lambda;
  if (!(dl_lo > 0.0 && dr_lo > 0.0)) return;
  double sl_lo, sl_hi, sr_lo, sr_hi;
  SquareBounds(g_lo, g_hi, &sl_lo, &sl_hi);
  SquareBounds(g_total - g_hi, g_total - g_lo, &sr_lo, &sr_hi);
  double parent = nodes.parent_score[lane];
  double lo = GainOfHalves(sl_lo / dl_hi, sr_lo / dr_hi, parent, options.gamma);
  double hi = GainOfHalves(sl_hi / dl_lo, sr_hi / dr_lo, parent, options.gamma);
  if (!(std::isfinite(lo) && std::isfinite(hi))) return;
  *lower = lo;
  *upper = hi;
}

#ifdef FAIRCLEAN_X86_COMPRESS_KERNELS

#define FAIRCLEAN_AVX512_TARGET \
  __attribute__((target("avx512f,avx512vl,avx512dq,popcnt")))

// Stores the lanes of a 16-row block selected by `keep` to consecutive
// slots of out_rows/out_values: 16 row ids and 2 x 8 values, each a
// zero-masked compress. With `full`, each is one full-width store: the
// lanes past the kept ones write zeros into slots that a later store or the
// scalar tail overwrites, so the caller guarantees that 16 slots fit in the
// destination. Otherwise each store is masked to the kept lanes, which is
// slower but writes nothing past them. Returns the kept count.
FAIRCLEAN_AVX512_TARGET size_t CompressBlock(__mmask16 keep, __m512i rows,
                                             __m512d lo, __m512d hi,
                                             bool full, uint32_t* out_rows,
                                             double* out_values) {
  __mmask8 keep_lo = static_cast<__mmask8>(keep);
  __mmask8 keep_hi = static_cast<__mmask8>(keep >> 8);
  unsigned kept_lo = static_cast<unsigned>(__builtin_popcount(keep_lo));
  unsigned kept_hi = static_cast<unsigned>(__builtin_popcount(keep_hi));
  __m512i packed_rows = _mm512_maskz_compress_epi32(keep, rows);
  __m512d packed_lo = _mm512_maskz_compress_pd(keep_lo, lo);
  __m512d packed_hi = _mm512_maskz_compress_pd(keep_hi, hi);
  if (full) {
    _mm512_storeu_si512(out_rows, packed_rows);
    _mm512_storeu_pd(out_values, packed_lo);
    _mm512_storeu_pd(out_values + kept_lo, packed_hi);
  } else {
    _mm512_mask_storeu_epi32(
        out_rows, static_cast<__mmask16>((1u << (kept_lo + kept_hi)) - 1),
        packed_rows);
    _mm512_mask_storeu_pd(out_values, static_cast<__mmask8>((1u << kept_lo) - 1),
                          packed_lo);
    _mm512_mask_storeu_pd(out_values + kept_lo,
                          static_cast<__mmask8>((1u << kept_hi) - 1),
                          packed_hi);
  }
  return kept_lo + kept_hi;
}

// The node ids of 16 rows whose ids are at most num_rows. The all-lanes
// masked forms here and below compile to the same instructions as the
// unmasked ones, whose undefined pass-through operand trips GCC 12's
// -Wmaybe-uninitialized inside <immintrin.h>.
FAIRCLEAN_AVX512_TARGET __m512i GatherNodes(__m512i rows,
                                            const int32_t* node_of) {
  return _mm512_mask_i32gather_epi32(_mm512_setzero_si512(), 0xFFFF, rows,
                                     node_of, 4);
}

// values[i - 1 .. i + 6] given the block's first 8 values and the previous
// block's last 8: a lane shift instead of a second, misaligned load.
FAIRCLEAN_AVX512_TARGET __m512d ShiftInPrevious(__m512d current,
                                                __m512d previous) {
  return _mm512_castsi512_pd(_mm512_maskz_alignr_epi64(
      0xFF, _mm512_castpd_si512(current), _mm512_castpd_si512(previous), 7));
}

// The vector filter for a presort that carries values; the value-less
// presorts of hand-built tests take the scalar loop.
FAIRCLEAN_AVX512_TARGET size_t FilterVector(
    const uint32_t* order, size_t size, const double* values,
    const int32_t* node_of, uint32_t num_rows, size_t limit,
    uint32_t* out_rows, double* out_values, bool* sorted) {
  const __m512i bound = _mm512_set1_epi32(static_cast<int32_t>(num_rows));
  const __m512i zero = _mm512_setzero_si512();
  // The first entry compares with itself, as in the scalar loop, so a NaN
  // there is caught too.
  __m512d carry = _mm512_set1_pd(size > 0 ? values[0] : 0.0);
  __mmask8 unordered = 0;
  size_t i = 0;
  size_t count = 0;
  // Every full-width store lands in [count, count + 16), inside the
  // limit + 1 output slots.
  for (; i + 16 <= size && count + 16 <= limit + 1; i += 16) {
    __m512i rows = _mm512_loadu_si512(order + i);
    __m512i nodes =
        GatherNodes(_mm512_maskz_min_epu32(0xFFFF, rows, bound), node_of);
    __mmask16 keep = _mm512_cmpge_epi32_mask(nodes, zero);
    __m512d lo = _mm512_loadu_pd(values + i);
    __m512d hi = _mm512_loadu_pd(values + i + 8);
    // NLE_UQ is true where previous > value or either is NaN: exactly where
    // the scalar `previous <= value` is false.
    unordered |=
        _mm512_cmp_pd_mask(ShiftInPrevious(lo, carry), lo, _CMP_NLE_UQ);
    unordered |= _mm512_cmp_pd_mask(ShiftInPrevious(hi, lo), hi, _CMP_NLE_UQ);
    carry = hi;
    count += CompressBlock(keep, rows, lo, hi, /*full=*/true,
                           out_rows + count, out_values + count);
  }
  FilterCursor cursor;
  cursor.i = i;
  cursor.count = count;
  cursor.ascending = unordered == 0;
  FilterFrom(order, size, values, node_of, num_rows, limit, out_rows,
             out_values, &cursor);
  *sorted = cursor.ascending;
  return cursor.count;
}

FAIRCLEAN_AVX512_TARGET void PartitionVector(
    const uint32_t* rows, const double* values, size_t size, size_t left_size,
    const int32_t* node_of, int32_t right, uint32_t* out_rows,
    double* out_values) {
  if (size == 0) return;
  size_t trailing = TrailingRunStart(values, size);
  const __m512i right_id = _mm512_set1_epi32(right);
  size_t left_slot = 0;
  size_t right_slot = left_size;
  size_t i = 0;
  // A side's full-width stores stay inside it, [0, left_size) or
  // [left_size, size); within 16 slots of its end it switches to masked
  // stores rather than handing the rest of the segment to the scalar loop,
  // because an uneven split reaches that edge early on its small side.
  for (; i + 16 <= trailing; i += 16) {
    __m512i block = _mm512_loadu_si512(rows + i);
    __mmask16 to_right =
        _mm512_cmpeq_epi32_mask(GatherNodes(block, node_of), right_id);
    __m512d lo = _mm512_loadu_pd(values + i);
    __m512d hi = _mm512_loadu_pd(values + i + 8);
    left_slot += CompressBlock(static_cast<__mmask16>(~to_right), block, lo,
                               hi, left_slot + 16 <= left_size,
                               out_rows + left_slot, out_values + left_slot);
    right_slot += CompressBlock(to_right, block, lo, hi,
                                right_slot + 16 <= size,
                                out_rows + right_slot,
                                out_values + right_slot);
  }
  PartitionRange(rows, values, i, trailing, node_of, right, out_rows,
                 out_values, &left_slot, &right_slot);
  FillTrailingRun(values[size - 1], left_slot, left_size, right_slot, size,
                  out_values);
}

// What every entry of the lane kernel reads: the per-row lane masks and
// the gradient pairs, 16 bytes per row. masks[2 row] holds bits 2k and
// 2k + 1 for lane k < 4 and masks[2 row + 1] the same for lane k - 4 >= 0;
// a row outside the lanes, and the sentinel row num_rows that larger ids
// clamp to, has none.
struct LaneTable {
  const uint8_t* masks;
  uint32_t num_rows;
  const char* gh_bytes;
};

// A run being summed, and where its sums go.
struct RunCursor {
  const uint32_t* order;
  size_t size;
  LaneSums* sums;
};

// Per-lane sums of one run in registers: the pair slots and row counts of
// lanes 0-3 (low) and 4-7 (high).
struct LaneRegisters {
  __m512d low;
  __m512d high;
  __m256i low_counts;
  __m256i high_counts;
};

// A lane mask loaded straight into a mask register: the compiler would
// route it through a general register, which costs a shuffle-port uop.
FAIRCLEAN_AVX512_TARGET inline __attribute__((always_inline)) __mmask8
LoadMask(const uint8_t* mask) {
  __mmask8 k;
  asm("kmovb %1, %0" : "=Yk"(k) : "m"(*mask));
  return k;
}

// min(row, num_rows) with a compare and a conditional move: the compiler
// would route it through a vector register and back.
FAIRCLEAN_AVX512_TARGET inline __attribute__((always_inline)) uint32_t
ClampRow(uint32_t row, uint32_t num_rows) {
  asm("cmpl %1, %0\n\tcmovae %1, %0" : "+r"(row) : "r"(num_rows) : "cc");
  return row;
}

// Adds one entry: its pair is broadcast and merge-masked into the two pair
// slots of its lane, so every other slot keeps its bits, and its lane's
// row count goes up by one.
template <bool kWide>
FAIRCLEAN_AVX512_TARGET inline __attribute__((always_inline)) void AddEntry(
    const LaneTable& table, uint32_t row_id, LaneRegisters* lanes) {
  uint32_t row = ClampRow(row_id, table.num_rows);
  __m512d pair = _mm512_mask_broadcast_f64x2(
      _mm512_setzero_pd(), 0xFF,
      _mm_loadu_pd(reinterpret_cast<const double*>(table.gh_bytes +
                                                   (size_t{row} << 4))));
  const __m256i one = _mm256_set1_epi32(1);
  __mmask8 low = LoadMask(table.masks + 2 * size_t{row});
  lanes->low = _mm512_mask_add_pd(lanes->low, low, lanes->low, pair);
  lanes->low_counts =
      _mm256_mask_add_epi32(lanes->low_counts, low, lanes->low_counts, one);
  if (kWide) {
    __mmask8 high = LoadMask(table.masks + 2 * size_t{row} + 1);
    lanes->high = _mm512_mask_add_pd(lanes->high, high, lanes->high, pair);
    lanes->high_counts = _mm256_mask_add_epi32(lanes->high_counts, high,
                                               lanes->high_counts, one);
  }
}

// Continues K runs from entry `from` up to the end of the shortest, one
// entry of each in turn. Each run's adds form one dependency chain, so K
// runs keep K chains in flight.
template <size_t K, bool kWide>
FAIRCLEAN_AVX512_TARGET size_t SumInterleaved(const LaneTable& table,
                                              const RunCursor* cursors,
                                              size_t from) {
  LaneRegisters lanes[K];
  size_t stop = cursors[0].size;
#pragma GCC unroll 4
  for (size_t k = 0; k < K; ++k) {
    const LaneSums* sums = cursors[k].sums;
    lanes[k].low = _mm512_loadu_pd(sums->gh);
    lanes[k].high = _mm512_loadu_pd(sums->gh + 8);
    lanes[k].low_counts = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(sums->count));
    lanes[k].high_counts = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(sums->count + 8));
    stop = std::min(stop, cursors[k].size);
  }
  for (size_t e = from; e < stop; ++e) {
#pragma GCC unroll 4
    for (size_t k = 0; k < K; ++k) {
      AddEntry<kWide>(table, cursors[k].order[e], &lanes[k]);
    }
  }
#pragma GCC unroll 4
  for (size_t k = 0; k < K; ++k) {
    LaneSums* sums = cursors[k].sums;
    _mm512_storeu_pd(sums->gh, lanes[k].low);
    _mm512_storeu_pd(sums->gh + 8, lanes[k].high);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(sums->count),
                        lanes[k].low_counts);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(sums->count + 8),
                        lanes[k].high_counts);
  }
  return stop;
}

// Sums up to kGroup runs side by side: when the shortest ends, the others
// go on with one chain fewer.
constexpr size_t kGroup = 4;

template <bool kWide>
FAIRCLEAN_AVX512_TARGET void SumGroup(const LaneTable& table,
                                      RunCursor* cursors, size_t live) {
  size_t from = 0;
  while (live > 0) {
    switch (live) {
      case 1: from = SumInterleaved<1, kWide>(table, cursors, from); break;
      case 2: from = SumInterleaved<2, kWide>(table, cursors, from); break;
      case 3: from = SumInterleaved<3, kWide>(table, cursors, from); break;
      default: from = SumInterleaved<4, kWide>(table, cursors, from); break;
    }
    size_t kept = 0;
    for (size_t k = 0; k < live; ++k) {
      if (cursors[k].size > from) cursors[kept++] = cursors[k];
    }
    live = kept;
  }
}

template <bool kWide>
FAIRCLEAN_AVX512_TARGET void SumRunsVector(const Run* runs, size_t num_runs,
                                           uint32_t num_rows,
                                           const double* gh,
                                           const LanePass& pass,
                                           LaneSums* sums) {
  for (size_t r = 0; r < num_runs; ++r) sums[r] = LaneSums{};
  // Little-endian: byte 2 row holds lanes 0-3, byte 2 row + 1 lanes 4-7.
  LaneTable table{reinterpret_cast<const uint8_t*>(pass.masks.data()),
                  num_rows, reinterpret_cast<const char*>(gh)};
  for (size_t begin = 0; begin < num_runs; begin += kGroup) {
    RunCursor cursors[kGroup];
    size_t live = 0;
    for (size_t r = begin; r < std::min(num_runs, begin + kGroup); ++r) {
      if (runs[r].size > 0) cursors[live++] = {runs[r].order, runs[r].size,
                                               &sums[r]};
    }
    SumGroup<kWide>(table, cursors, live);
  }
}

#undef FAIRCLEAN_AVX512_TARGET

#endif  // FAIRCLEAN_X86_COMPRESS_KERNELS

}  // namespace

bool CpuHasAvx512() {
#ifdef FAIRCLEAN_X86_COMPRESS_KERNELS
  static const bool has_avx512 = __builtin_cpu_supports("avx512f") != 0 &&
                                 __builtin_cpu_supports("avx512vl") != 0 &&
                                 __builtin_cpu_supports("avx512dq") != 0;
  return has_avx512;
#else
  return false;
#endif
}

size_t FilterFeature(const uint32_t* order, size_t size, const double* values,
                     const int32_t* node_of, uint32_t num_rows, size_t limit,
                     uint32_t* out_rows, double* out_values, bool* sorted) {
  FilterCursor cursor;
  FilterFrom(order, size, values, node_of, num_rows, limit, out_rows,
             out_values, &cursor);
  if (values != nullptr) *sorted = cursor.ascending;
  return cursor.count;
}

size_t FilterFeatureAvx512(const uint32_t* order, size_t size,
                           const double* values, const int32_t* node_of,
                           uint32_t num_rows, size_t limit, uint32_t* out_rows,
                           double* out_values, bool* sorted) {
#ifdef FAIRCLEAN_X86_COMPRESS_KERNELS
  if (values != nullptr) {
    return FilterVector(order, size, values, node_of, num_rows, limit,
                        out_rows, out_values, sorted);
  }
#endif
  return FilterFeature(order, size, values, node_of, num_rows, limit,
                       out_rows, out_values, sorted);
}

void PartitionSegment(const uint32_t* rows, const double* values, size_t size,
                      size_t left_size, const int32_t* node_of, int32_t right,
                      uint32_t* out_rows, double* out_values) {
  if (size == 0) return;
  size_t trailing = TrailingRunStart(values, size);
  size_t left_slot = 0;
  size_t right_slot = left_size;
  PartitionRange(rows, values, 0, trailing, node_of, right, out_rows,
                 out_values, &left_slot, &right_slot);
  FillTrailingRun(values[size - 1], left_slot, left_size, right_slot, size,
                  out_values);
}

void PartitionSegmentAvx512(const uint32_t* rows, const double* values,
                            size_t size, size_t left_size,
                            const int32_t* node_of, int32_t right,
                            uint32_t* out_rows, double* out_values) {
#ifdef FAIRCLEAN_X86_COMPRESS_KERNELS
  PartitionVector(rows, values, size, left_size, node_of, right, out_rows,
                  out_values);
#else
  PartitionSegment(rows, values, size, left_size, node_of, right, out_rows,
                   out_values);
#endif
}

void BuildLaneMasks(const int32_t* node_of, uint32_t num_rows,
                    LanePass* pass) {
  // Unsigned: a node before `first` or -1 wraps past every lane.
  uint32_t base = static_cast<uint32_t>(pass->first);
  pass->masks.resize(size_t{num_rows} + 1);
  uint16_t* masks = pass->masks.data();
  for (size_t row = 0; row <= num_rows; ++row) {
    uint32_t lane = static_cast<uint32_t>(node_of[row]) - base;
    masks[row] =
        static_cast<uint16_t>(lane < pass->width ? 3u << (2 * lane) : 0u);
  }
}

void SumRuns(const Run* runs, size_t num_runs, const int32_t* node_of,
             uint32_t num_rows, const double* gh, const LanePass& pass,
             LaneSums* sums) {
  // Unsigned: a node before `first` or -1 wraps past every lane.
  uint32_t base = static_cast<uint32_t>(pass.first);
  for (size_t r = 0; r < num_runs; ++r) {
    LaneSums lanes = {};
    for (size_t i = 0; i < runs[r].size; ++i) {
      uint32_t row = runs[r].order[i];
      uint32_t lane =
          static_cast<uint32_t>(node_of[std::min(row, num_rows)]) - base;
      if (lane >= pass.width) continue;
      lanes.gh[2 * lane] += gh[2 * static_cast<size_t>(row)];
      lanes.gh[2 * lane + 1] += gh[2 * static_cast<size_t>(row) + 1];
      ++lanes.count[2 * lane];
      ++lanes.count[2 * lane + 1];
    }
    sums[r] = lanes;
  }
}

void SumRunsAvx512(const Run* runs, size_t num_runs, const int32_t* node_of,
                   uint32_t num_rows, const double* gh, const LanePass& pass,
                   LaneSums* sums) {
#ifdef FAIRCLEAN_X86_COMPRESS_KERNELS
  (void)node_of;
  auto* kernel =
      pass.width > kMaxLanes / 2 ? SumRunsVector<true> : SumRunsVector<false>;
  kernel(runs, num_runs, num_rows, gh, pass, sums);
#else
  SumRuns(runs, num_runs, node_of, num_rows, gh, pass, sums);
#endif
}

void BoundGains(const LaneSums* sums, size_t num_sums, const LaneNodes& nodes,
                const GainOptions& options, double* proven, double* upper) {
  for (size_t r = 0; r < num_sums; ++r) {
    for (size_t lane = 0; lane < kMaxLanes; ++lane) {
      double lower;
      BoundLane(sums[r].g(lane), sums[r].h(lane),
                static_cast<double>(sums[r].rows(lane)), lane, nodes, options,
                &lower, &upper[r * kMaxLanes + lane]);
      proven[lane] = std::max(proven[lane], lower);
    }
  }
}

}  // namespace tree_compress
}  // namespace fairclean
