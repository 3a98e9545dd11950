// Identity test for the stable compress kernels of the split search
// (ml/tree_compress.h). The scalar kernels are checked against plain
// reference loops; the AVX-512 kernels against the scalar ones, byte for
// byte on every output slot the kernel contracts define, with guard slots
// around each buffer to catch a store outside it. Segment sizes run over
// 0-70 so every 16-lane block edge, full and partial, is crossed.
#include "ml/tree_compress.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "ml/regression_tree.h"

namespace fairclean {
namespace {

using tree_compress::BoundGains;
using tree_compress::FilterFeature;
using tree_compress::FilterFeatureAvx512;
using tree_compress::GainOptions;
using tree_compress::kMaxLanes;
using tree_compress::LaneNodes;
using tree_compress::LanePass;
using tree_compress::LaneSums;
using tree_compress::PartitionSegment;
using tree_compress::PartitionSegmentAvx512;
using tree_compress::Run;
using tree_compress::SumRuns;
using tree_compress::SumRunsAvx512;

constexpr size_t kGuard = 24;
constexpr uint32_t kRowFill = 0xA5A5A5A5u;
constexpr size_t kMaxSize = 70;

constexpr const char* kNoAvx512 =
    "this CPU lacks AVX-512 F/VL/DQ, so the vector kernels cannot run; only "
    "the scalar kernels were checked";

bool SameBytes(const void* a, const void* b, size_t bytes) {
  return bytes == 0 || std::memcmp(a, b, bytes) == 0;
}

// An output buffer with kGuard poisoned slots on each side of `slots`
// usable ones.
struct Buffers {
  explicit Buffers(size_t slots)
      : rows(slots + 2 * kGuard, kRowFill),
        values(slots + 2 * kGuard, -12345.5) {}
  uint32_t* out_rows() { return rows.data() + kGuard; }
  double* out_values() { return values.data() + kGuard; }
  const uint32_t* out_rows() const { return rows.data() + kGuard; }
  const double* out_values() const { return values.data() + kGuard; }
  // True when nothing was written outside [0, slots).
  bool GuardsIntact(size_t slots) const {
    for (size_t i = 0; i < rows.size(); ++i) {
      if (i >= kGuard && i < kGuard + slots) continue;
      if (rows[i] != kRowFill || values[i] != -12345.5) return false;
    }
    return true;
  }
  std::vector<uint32_t> rows;
  std::vector<double> values;
};

// Value patterns for a sorted column: distinct, signed zeros and
// infinities, heavy ties, and a single repeated value.
std::vector<double> SortedValues(size_t size, int pattern, Rng* rng) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> values(size);
  for (size_t i = 0; i < size; ++i) {
    switch (pattern) {
      case 0:
        values[i] = static_cast<double>(i) * 0.5 - 3.0;
        break;
      case 1: {
        static const double kLadder[] = {-inf, -1.0, -0.0, 0.0, 2.0, inf};
        values[i] = kLadder[i * 6 / (size + 1)];
        break;
      }
      case 2:
        values[i] = static_cast<double>(rng->UniformInt(0, 2));
        break;
      default:
        values[i] = 7.0;
        break;
    }
  }
  if (pattern == 2) std::sort(values.begin(), values.end());
  return values;
}

// ---------------------------------------------------------------------------
// Level-0 filter.

struct FilterCase {
  std::vector<uint32_t> order;
  std::vector<double> values;
  std::vector<int32_t> node_of;  // num_rows + 1 entries, -1 past the end
  uint32_t num_rows = 0;
};

// `size` presort entries over rows [0, num_rows), some of them listed past
// the matrix (row id >= num_rows) when `out_of_range` is set.
FilterCase MakeFilterCase(size_t size, int membership, int pattern,
                          bool out_of_range, Rng* rng) {
  FilterCase c;
  c.num_rows = static_cast<uint32_t>(size);
  c.node_of.assign(size + 1, -1);
  c.order.resize(size);
  for (size_t i = 0; i < size; ++i) c.order[i] = static_cast<uint32_t>(i);
  for (size_t i = size; i > 1; --i) {
    std::swap(c.order[i - 1], c.order[rng->UniformInt(0, i - 1)]);
  }
  for (size_t row = 0; row < size; ++row) {
    bool kept = false;
    switch (membership) {
      case 0: kept = true; break;                     // all sampled
      case 1: kept = false; break;                    // none
      case 2: kept = rng->Bernoulli(0.5); break;      // random half
      case 3: kept = row % 2 == 0; break;             // alternating
      default: kept = rng->Bernoulli(0.9); break;     // mostly sampled
    }
    if (kept) c.node_of[row] = 0;
  }
  if (out_of_range) {
    for (size_t i = 0; i < size; i += 5) c.order[i] = c.num_rows + 3 * i;
  }
  c.values = SortedValues(size, pattern, rng);
  return c;
}

size_t KeptCount(const FilterCase& c) {
  size_t kept = 0;
  for (uint32_t row : c.order) {
    kept += row < c.num_rows && c.node_of[row] >= 0;
  }
  return kept;
}

struct FilterOutput {
  size_t count = 0;
  bool sorted = false;
  Buffers buffers;
};

template <typename Kernel>
FilterOutput RunFilter(Kernel kernel, const FilterCase& c, size_t limit,
                       bool with_values) {
  // Starts true, as in the fit: an empty column's values may be null.
  FilterOutput out{0, true, Buffers(limit + 1)};
  out.count = kernel(c.order.data(), c.order.size(),
                     with_values ? c.values.data() : nullptr,
                     c.node_of.data(), c.num_rows, limit,
                     out.buffers.out_rows(), out.buffers.out_values(),
                     &out.sorted);
  return out;
}

void ExpectSameFilter(const FilterOutput& expected,
                      const FilterOutput& actual, size_t limit,
                      bool with_values) {
  EXPECT_EQ(actual.count, expected.count);
  if (with_values) {
    EXPECT_EQ(actual.sorted, expected.sorted);
  }
  EXPECT_TRUE(actual.buffers.GuardsIntact(limit + 1));
  size_t defined = std::min(expected.count, limit + 1);
  EXPECT_TRUE(SameBytes(expected.buffers.out_rows(),
                        actual.buffers.out_rows(),
                        defined * sizeof(uint32_t)));
  if (with_values) {
    EXPECT_TRUE(SameBytes(expected.buffers.out_values(),
                          actual.buffers.out_values(),
                          defined * sizeof(double)));
  }
}

TEST(TreeCompressTest, ScalarFilterMatchesReference) {
  Rng rng(1);
  for (size_t size = 0; size <= kMaxSize; ++size) {
    for (int membership = 0; membership < 5; ++membership) {
      SCOPED_TRACE("size " + std::to_string(size) + " membership " +
                   std::to_string(membership));
      FilterCase c = MakeFilterCase(size, membership, 0, size % 3 == 0, &rng);
      std::vector<uint32_t> expected;
      for (uint32_t row : c.order) {
        if (row < c.num_rows && c.node_of[row] >= 0) expected.push_back(row);
      }
      FilterOutput out = RunFilter(FilterFeature, c, expected.size(), true);
      ASSERT_EQ(out.count, expected.size());
      EXPECT_TRUE(out.sorted);
      EXPECT_TRUE(out.buffers.GuardsIntact(expected.size() + 1));
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(out.buffers.out_rows()[i], expected[i]);
      }
      if (!expected.empty()) {
        // One kept row too many for the limit stops the filter.
        FilterOutput short_out =
            RunFilter(FilterFeature, c, expected.size() - 1, true);
        EXPECT_EQ(short_out.count, expected.size());
      }
    }
  }
}

TEST(TreeCompressTest, VectorFilterMatchesScalar) {
  if (!tree_compress::CpuHasAvx512()) GTEST_SKIP() << kNoAvx512;
  Rng rng(2);
  for (size_t size = 0; size <= kMaxSize; ++size) {
    for (int membership = 0; membership < 5; ++membership) {
      for (int pattern = 0; pattern < 4; ++pattern) {
        for (bool out_of_range : {false, true}) {
          FilterCase c =
              MakeFilterCase(size, membership, pattern, out_of_range, &rng);
          size_t kept = KeptCount(c);
          // The fit's limit (exactly the kept rows), a limit the kept rows
          // overflow, and one they fall short of.
          for (size_t limit : {kept, kept / 2, kept + 3}) {
            for (bool with_values : {true, false}) {
              SCOPED_TRACE("size " + std::to_string(size) + " membership " +
                           std::to_string(membership) + " pattern " +
                           std::to_string(pattern) + " out_of_range " +
                           std::to_string(out_of_range) + " limit " +
                           std::to_string(limit) + " values " +
                           std::to_string(with_values));
              FilterOutput expected =
                  RunFilter(FilterFeature, c, limit, with_values);
              FilterOutput actual =
                  RunFilter(FilterFeatureAvx512, c, limit, with_values);
              ExpectSameFilter(expected, actual, limit, with_values);
            }
          }
        }
      }
    }
  }
}

// A NaN or a descending value at any position of a block must fail the
// ascending check, including at a block's first lane, whose predecessor
// sits in the previous block. With a vector kernel, its output must also
// match the scalar one.
template <typename Kernel>
void CheckRejectsUnorderedAtEveryPosition(Kernel kernel, bool compare) {
  Rng rng(3);
  for (size_t size : {1u, 15u, 16u, 17u, 33u, 48u, 70u}) {
    for (size_t at = 0; at < size; ++at) {
      for (bool nan : {true, false}) {
        if (!nan && at == 0) continue;  // the first value has no predecessor
        SCOPED_TRACE("size " + std::to_string(size) + " at " +
                     std::to_string(at) + (nan ? " NaN" : " descending"));
        FilterCase c = MakeFilterCase(size, 2, 0, false, &rng);
        c.values[at] = nan ? std::numeric_limits<double>::quiet_NaN()
                           : c.values[at - 1] - 0.25;
        size_t kept = KeptCount(c);
        FilterOutput actual = RunFilter(kernel, c, kept, true);
        EXPECT_EQ(actual.count, kept);
        EXPECT_FALSE(actual.sorted);
        if (compare) {
          ExpectSameFilter(RunFilter(FilterFeature, c, kept, true), actual,
                           kept, true);
        }
      }
    }
  }
}

TEST(TreeCompressTest, ScalarFilterRejectsNaNAndDescendingAtEveryPosition) {
  CheckRejectsUnorderedAtEveryPosition(FilterFeature, false);
}

TEST(TreeCompressTest, VectorFilterRejectsNaNAndDescendingAtEveryPosition) {
  if (!tree_compress::CpuHasAvx512()) GTEST_SKIP() << kNoAvx512;
  CheckRejectsUnorderedAtEveryPosition(FilterFeatureAvx512, true);
}

// ---------------------------------------------------------------------------
// Partition.

struct PartitionCase {
  std::vector<uint32_t> rows;
  std::vector<double> values;
  std::vector<int32_t> node_of;
  size_t left_size = 0;
  size_t trailing = 0;       // first slot of the largest value's run
  size_t left_leading = 0;   // left rows before `trailing`
  size_t right_leading = 0;  // right rows before `trailing`
};

constexpr int32_t kLeft = 5;
constexpr int32_t kRight = 6;

// A segment of `size` rows, in a shuffled row order, sent left or right by
// `split`: 0 all left, 1 all right, 2 random, 3 alternating, 4 a run of
// rights in the middle of lefts.
PartitionCase MakePartitionCase(size_t size, int split, int pattern,
                                Rng* rng) {
  PartitionCase c;
  size_t num_rows = size + 9;
  c.node_of.assign(num_rows + 1, -1);
  std::vector<uint32_t> ids(num_rows);
  for (size_t i = 0; i < num_rows; ++i) ids[i] = static_cast<uint32_t>(i);
  for (size_t i = num_rows; i > 1; --i) {
    std::swap(ids[i - 1], ids[rng->UniformInt(0, i - 1)]);
  }
  c.rows.assign(ids.begin(), ids.begin() + static_cast<long>(size));
  c.values = SortedValues(size, pattern, rng);
  for (size_t i = 0; i < size; ++i) {
    bool right = false;
    switch (split) {
      case 0: right = false; break;
      case 1: right = true; break;
      case 2: right = rng->Bernoulli(0.5); break;
      case 3: right = i % 2 == 1; break;
      default: right = i >= size / 3 && i < size / 3 + 17; break;
    }
    c.node_of[c.rows[i]] = right ? kRight : kLeft;
    c.left_size += !right;
  }
  c.trailing = size == 0 ? 0 : size - 1;
  while (c.trailing > 0 && c.values[c.trailing - 1] == c.values[size - 1]) {
    --c.trailing;
  }
  for (size_t i = 0; i < c.trailing; ++i) {
    (c.node_of[c.rows[i]] == kRight ? c.right_leading : c.left_leading) += 1;
  }
  return c;
}

template <typename Kernel>
Buffers RunPartition(Kernel kernel, const PartitionCase& c) {
  Buffers out(c.rows.size());
  kernel(c.rows.data(), c.values.data(), c.rows.size(), c.left_size,
         c.node_of.data(), kRight, out.out_rows(), out.out_values());
  return out;
}

TEST(TreeCompressTest, ScalarPartitionMatchesReference) {
  Rng rng(4);
  for (size_t size = 0; size <= kMaxSize; ++size) {
    for (int split = 0; split < 5; ++split) {
      for (int pattern = 0; pattern < 4; ++pattern) {
        SCOPED_TRACE("size " + std::to_string(size) + " split " +
                     std::to_string(split) + " pattern " +
                     std::to_string(pattern));
        PartitionCase c = MakePartitionCase(size, split, pattern, &rng);
        Buffers out = RunPartition(PartitionSegment, c);
        EXPECT_TRUE(out.GuardsIntact(size));
        size_t left = 0;
        size_t right = c.left_size;
        for (size_t i = 0; i < c.trailing; ++i) {
          size_t slot = c.node_of[c.rows[i]] == kRight ? right++ : left++;
          EXPECT_EQ(out.out_rows()[slot], c.rows[i]) << "slot " << slot;
          EXPECT_EQ(out.out_values()[slot], c.values[i]) << "slot " << slot;
        }
        for (size_t slot = 0; slot < size; ++slot) {
          bool filled = (slot >= left && slot < c.left_size) || slot >= right;
          if (filled) {
            EXPECT_EQ(out.out_values()[slot], c.values[size - 1]);
          }
        }
      }
    }
  }
}

TEST(TreeCompressTest, VectorPartitionMatchesScalar) {
  if (!tree_compress::CpuHasAvx512()) GTEST_SKIP() << kNoAvx512;
  Rng rng(5);
  for (size_t size = 0; size <= kMaxSize; ++size) {
    for (int split = 0; split < 5; ++split) {
      for (int pattern = 0; pattern < 4; ++pattern) {
        SCOPED_TRACE("size " + std::to_string(size) + " split " +
                     std::to_string(split) + " pattern " +
                     std::to_string(pattern));
        PartitionCase c = MakePartitionCase(size, split, pattern, &rng);
        Buffers expected = RunPartition(PartitionSegment, c);
        Buffers actual = RunPartition(PartitionSegmentAvx512, c);
        EXPECT_TRUE(actual.GuardsIntact(size));
        // Every value slot, and every row slot outside the largest
        // value's run.
        EXPECT_TRUE(SameBytes(expected.out_values(), actual.out_values(),
                              size * sizeof(double)));
        EXPECT_TRUE(SameBytes(expected.out_rows(), actual.out_rows(),
                              c.left_leading * sizeof(uint32_t)));
        EXPECT_TRUE(SameBytes(expected.out_rows() + c.left_size,
                              actual.out_rows() + c.left_size,
                              c.right_leading * sizeof(uint32_t)));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Lane kernel.

constexpr int32_t kFirstLane = 9;

// Rows whose nodes cover every case of a lane pass: outside the sample
// (-1), an earlier leaf (below kFirstLane), one of the pass's kMaxLanes
// nodes, and a node past them. Runs list rows in a shuffled order, some
// of them past the matrix, with lengths 0 to kMaxSize and a few of equal
// length, so the vector kernel's groups and their tails both run. The
// gradient pairs include ±0.0 and ±inf.
struct LaneCase {
  uint32_t num_rows = 0;
  std::vector<int32_t> node_of;  // num_rows + 1 entries, -1 past the end
  std::vector<double> gh;        // num_rows + 1 pairs
  std::vector<std::vector<uint32_t>> orders;
  std::vector<Run> runs;
};

LaneCase MakeLaneCase(size_t num_runs, Rng* rng) {
  const double inf = std::numeric_limits<double>::infinity();
  LaneCase c;
  c.num_rows = 90;
  c.node_of.assign(c.num_rows + 1, -1);
  c.gh.assign(2 * (c.num_rows + 1), 0.0);
  for (uint32_t row = 0; row < c.num_rows; ++row) {
    int kind = static_cast<int>(rng->UniformInt(0, 9));
    if (kind == 0) {
      c.node_of[row] = -1;
    } else if (kind == 1) {
      c.node_of[row] = static_cast<int32_t>(rng->UniformInt(0, kFirstLane - 1));
    } else if (kind == 2) {
      c.node_of[row] = kFirstLane + static_cast<int32_t>(kMaxLanes) +
                       static_cast<int32_t>(rng->UniformInt(0, 3));
    } else {
      c.node_of[row] =
          kFirstLane + static_cast<int32_t>(rng->UniformInt(0, kMaxLanes - 1));
    }
    static const double kSpecial[] = {0.0, -0.0, inf, -inf};
    for (int k = 0; k < 2; ++k) {
      c.gh[2 * row + k] = rng->Bernoulli(0.05)
                              ? kSpecial[rng->UniformInt(0, 3)]
                              : rng->Normal(0.0, 1.0);
    }
  }
  for (size_t r = 0; r < num_runs; ++r) {
    size_t size = r % 3 == 2 ? c.orders[r - 1].size()
                             : rng->UniformInt(0, kMaxSize);
    std::vector<uint32_t> order(size);
    for (uint32_t& row : order) {
      row = rng->Bernoulli(0.1) ? c.num_rows + static_cast<uint32_t>(
                                                   rng->UniformInt(0, 40))
                                : static_cast<uint32_t>(
                                      rng->UniformInt(0, c.num_rows - 1));
    }
    c.orders.push_back(std::move(order));
  }
  for (const std::vector<uint32_t>& order : c.orders) {
    c.runs.push_back({order.data(), order.size()});
  }
  return c;
}

template <typename Kernel>
std::vector<LaneSums> RunLanes(Kernel kernel, const LaneCase& c,
                               size_t width, LanePass* pass) {
  std::vector<LaneSums> sums(c.runs.size());
  // Poison, so a slot the kernel leaves unwritten shows.
  if (!sums.empty()) {
    std::memset(sums.data(), 0xA5, sums.size() * sizeof(LaneSums));
  }
  pass->first = kFirstLane;
  pass->width = width;
  tree_compress::BuildLaneMasks(c.node_of.data(), c.num_rows, pass);
  kernel(c.runs.data(), c.runs.size(), c.node_of.data(), c.num_rows,
         c.gh.data(), *pass, sums.data());
  return sums;
}

TEST(TreeCompressTest, ScalarLaneSumsMatchReference) {
  Rng rng(7);
  LanePass pass;
  for (size_t num_runs : {0u, 1u, 3u, 6u}) {
    LaneCase c = MakeLaneCase(num_runs, &rng);
    for (size_t width = 1; width <= kMaxLanes; ++width) {
      SCOPED_TRACE("runs " + std::to_string(num_runs) + " width " +
                   std::to_string(width));
      std::vector<LaneSums> sums = RunLanes(SumRuns, c, width, &pass);
      for (size_t r = 0; r < num_runs; ++r) {
        for (size_t lane = 0; lane < kMaxLanes; ++lane) {
          // Each lane is a plain in-order sum of its node's rows.
          double g = 0.0;
          double h = 0.0;
          uint32_t rows = 0;
          for (uint32_t row : c.orders[r]) {
            if (lane >= width || row >= c.num_rows ||
                c.node_of[row] != kFirstLane + static_cast<int32_t>(lane)) {
              continue;
            }
            g += c.gh[2 * row];
            h += c.gh[2 * row + 1];
            ++rows;
          }
          EXPECT_TRUE(SameBytes(&sums[r].gh[2 * lane], &g, sizeof g));
          EXPECT_TRUE(SameBytes(&sums[r].gh[2 * lane + 1], &h, sizeof h));
          EXPECT_EQ(sums[r].rows(lane), rows);
          EXPECT_EQ(sums[r].count[2 * lane + 1], rows);
        }
      }
    }
  }
}

TEST(TreeCompressTest, VectorLaneSumsMatchScalar) {
  if (!tree_compress::CpuHasAvx512()) GTEST_SKIP() << kNoAvx512;
  Rng rng(8);
  LanePass pass;  // shared, so stale masks would show
  for (int trial = 0; trial < 6; ++trial) {
    for (size_t num_runs : {0u, 1u, 2u, 4u, 5u, 9u}) {
      LaneCase c = MakeLaneCase(num_runs, &rng);
      for (size_t width = 1; width <= kMaxLanes; ++width) {
        SCOPED_TRACE("trial " + std::to_string(trial) + " runs " +
                     std::to_string(num_runs) + " width " +
                     std::to_string(width));
        std::vector<LaneSums> expected =
            RunLanes(SumRuns, c, width, &pass);
        std::vector<LaneSums> actual =
            RunLanes(SumRunsAvx512, c, width, &pass);
        EXPECT_TRUE(SameBytes(expected.data(), actual.data(),
                              expected.size() * sizeof(LaneSums)));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Gain bound kernel.

// The fit's SplitGain, written out: the expression the bounds must hold.
double ReferenceGain(double g_left, double h_left, double g_total,
                     double h_total, double parent, const GainOptions& o) {
  double g_right = g_total - g_left;
  double h_right = h_total - h_left;
  if (!(h_left >= o.min_child_weight && h_right >= o.min_child_weight)) {
    return 0.0;
  }
  return tree_compress::GainOfHalves(g_left * g_left / (h_left + o.lambda),
                                     g_right * g_right / (h_right + o.lambda),
                                     parent, o.gamma);
}

// A pass of random nodes and high-run sums. Most lanes are ordinary
// logistic-scale nodes; some hold huge or tiny statistics, negative or
// zero hessians, infinities or NaN, no high rows or only high rows, and
// min_child_weight sits near some hessian sums.
struct BoundCase {
  LaneNodes nodes = {};
  GainOptions options;
  std::vector<LaneSums> sums;
};

BoundCase MakeBoundCase(size_t num_sums, Rng* rng) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  BoundCase c;
  static const double kLambdas[] = {0.0, 1.0, 1e-9, 3.0};
  c.options.lambda = kLambdas[rng->UniformInt(0, 3)];
  c.options.gamma = rng->Bernoulli(0.5) ? 0.0 : rng->Uniform(0.0, 2.0);
  c.options.min_child_weight =
      rng->Bernoulli(0.3) ? 0.0 : rng->Uniform(0.0, 20.0);
  for (size_t lane = 0; lane < kMaxLanes; ++lane) {
    double size = static_cast<double>(rng->UniformInt(0, 400));
    double scale = rng->Bernoulli(0.1) ? 1e150 : (rng->Bernoulli(0.1) ? 1e-150
                                                                       : 1.0);
    c.nodes.size[lane] = size;
    c.nodes.g_total[lane] = rng->Normal(0.0, 0.3 * size + 1.0) * scale;
    c.nodes.h_total[lane] = rng->Uniform(0.0, 0.25) * size * scale;
    c.nodes.g_slack[lane] = (4 * size + 8) * size * scale * 1.2e-16;
    c.nodes.h_slack[lane] = (4 * size + 8) * size * scale * 0.3e-16;
    c.nodes.parent_score[lane] =
        c.nodes.g_total[lane] * c.nodes.g_total[lane] /
        (c.nodes.h_total[lane] + c.options.lambda);
    int special = static_cast<int>(rng->UniformInt(0, 19));
    if (special == 0) c.nodes.g_total[lane] = inf;
    if (special == 1) c.nodes.h_total[lane] = nan;
    if (special == 2) c.nodes.g_slack[lane] = inf;
    if (special == 3) c.nodes.h_total[lane] = -rng->Uniform(0.0, 5.0);
  }
  for (size_t r = 0; r < num_sums; ++r) {
    LaneSums sums = {};
    for (size_t lane = 0; lane < kMaxLanes; ++lane) {
      uint32_t size = static_cast<uint32_t>(c.nodes.size[lane]);
      int kind = static_cast<int>(rng->UniformInt(0, 9));
      uint32_t high = kind == 0 ? 0u
                      : kind == 1
                          ? size
                          : static_cast<uint32_t>(rng->UniformInt(0, size));
      double share = size == 0 ? 0.0 : static_cast<double>(high) / size;
      sums.gh[2 * lane] =
          c.nodes.g_total[lane] * share + rng->Normal(0.0, 1.0);
      sums.gh[2 * lane + 1] = c.nodes.h_total[lane] * share;
      if (kind == 2) {
        // h_left or h_right right at min_child_weight.
        sums.gh[2 * lane + 1] =
            c.nodes.h_total[lane] - c.options.min_child_weight;
      }
      if (kind == 3) sums.gh[2 * lane + 1] = c.options.min_child_weight;
      if (kind == 4 && rng->Bernoulli(0.2)) sums.gh[2 * lane] = -inf;
      sums.count[2 * lane] = high;
      sums.count[2 * lane + 1] = high;
    }
    c.sums.push_back(sums);
  }
  return c;
}

TEST(TreeCompressTest, ScalarGainBoundsHoldEveryGainInRange) {
  Rng rng(11);
  size_t certified = 0;
  size_t no_candidate = 0;
  for (int trial = 0; trial < 200; ++trial) {
    BoundCase c = MakeBoundCase(4, &rng);
    for (size_t r = 0; r < c.sums.size(); ++r) {
      // One column at a time, so `proven` ends at its own lower bounds.
      double lower[kMaxLanes];
      double upper[kMaxLanes];
      std::fill(lower, lower + kMaxLanes,
                -std::numeric_limits<double>::infinity());
      BoundGains(&c.sums[r], 1, c.nodes, c.options, lower, upper);
      for (size_t lane = 0; lane < kMaxLanes; ++lane) {
        double lo = lower[lane];
        double hi = upper[lane];
        if (std::isinf(hi)) continue;  // not certified
        ASSERT_LE(lo, hi);
        if (lo == 0.0 && hi == 0.0) {
          ++no_candidate;
        } else {
          ++certified;
        }
        double g_total = c.nodes.g_total[lane];
        double h_total = c.nodes.h_total[lane];
        if (!(c.sums[r].rows(lane) > 0 &&
              c.sums[r].rows(lane) < c.nodes.size[lane])) {
          continue;  // one value in the node: no candidate, nothing to test
        }
        double g_low = g_total - c.sums[r].g(lane);
        double h_low = h_total - c.sums[r].h(lane);
        double g_ends[2] = {g_low - c.nodes.g_slack[lane],
                            g_low + c.nodes.g_slack[lane]};
        double h_ends[2] = {h_low - c.nodes.h_slack[lane],
                            h_low + c.nodes.h_slack[lane]};
        // The corners, points next to them, and random interior points.
        for (int k = 0; k < 24; ++k) {
          double g = g_ends[k & 1];
          double h = h_ends[(k >> 1) & 1];
          if (k >= 4 && k < 8) {
            g = std::nextafter(g, g_low);
            h = std::nextafter(h, h_low);
          } else if (k >= 8) {
            g = g_ends[0] + (g_ends[1] - g_ends[0]) * rng.Uniform();
            h = h_ends[0] + (h_ends[1] - h_ends[0]) * rng.Uniform();
            g = std::min(std::max(g, g_ends[0]), g_ends[1]);
            h = std::min(std::max(h, h_ends[0]), h_ends[1]);
          }
          double gain = ReferenceGain(g, h, g_total, h_total,
                                      c.nodes.parent_score[lane], c.options);
          EXPECT_LE(lo, gain) << "trial " << trial << " lane " << lane;
          EXPECT_LE(gain, hi) << "trial " << trial << " lane " << lane;
        }
      }
    }
  }
  // Both outcomes are exercised.
  EXPECT_GT(certified, 100u);
  EXPECT_GT(no_candidate, 100u);
}

// ---------------------------------------------------------------------------
// The fit's checks hold on whichever kernels it dispatched to.

TEST(TreeCompressTest, FitRejectsMalformedSamplesAndPresorts) {
  Rng rng(6);
  size_t n = 40;
  Matrix x(n, 2);
  std::vector<double> grad(n);
  std::vector<double> hess(n, 1.0);
  for (size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.Normal(0.0, 1.0);
    x(i, 1) = static_cast<double>(rng.UniformInt(0, 3));
    grad[i] = rng.Normal(0.0, 1.0);
  }
  PresortedFeatures presorted = PresortedFeatures::Compute(x);
  RegressionTreeOptions options;
  RegressionTree tree;
  // Duplicate and out-of-range sample rows.
  EXPECT_EQ(tree.FitPresorted(x, grad, hess, {3, 5, 3}, presorted, options)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      tree.FitPresorted(x, grad, hess, {3, n}, presorted, options).code(),
      StatusCode::kInvalidArgument);
  // A presort listing a sample row twice keeps one row too many.
  PresortedFeatures doubled = presorted;
  for (size_t f = 0; f < 2; ++f) {
    doubled.order[f].insert(doubled.order[f].begin(), doubled.order[f][0]);
    doubled.values[f].insert(doubled.values[f].begin(),
                             doubled.values[f][0]);
  }
  std::vector<size_t> all(n);
  for (size_t i = 0; i < n; ++i) all[i] = i;
  EXPECT_EQ(tree.FitPresorted(x, grad, hess, all, doubled, options).code(),
            StatusCode::kInvalidArgument);
  // A presort row id past the matrix counts as outside the sample.
  PresortedFeatures padded = presorted;
  for (size_t f = 0; f < 2; ++f) {
    padded.order[f].push_back(static_cast<uint32_t>(n + 100));
    padded.values[f].push_back(std::numeric_limits<double>::infinity());
  }
  RegressionTree reference;
  ASSERT_TRUE(
      reference.FitPresorted(x, grad, hess, all, presorted, options).ok());
  ASSERT_TRUE(tree.FitPresorted(x, grad, hess, all, padded, options).ok());
  ASSERT_EQ(tree.num_nodes(), reference.num_nodes());
  for (size_t i = 0; i < tree.num_nodes(); ++i) {
    EXPECT_EQ(tree.nodes()[i].threshold, reference.nodes()[i].threshold);
    EXPECT_EQ(tree.nodes()[i].value, reference.nodes()[i].value);
  }
  // A NaN in a presort's values, in a block's last lane.
  PresortedFeatures poisoned = presorted;
  poisoned.values[0][15] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(tree.FitPresorted(x, grad, hess, all, poisoned, options).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace fairclean
