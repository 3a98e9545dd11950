#include "obs/metrics.h"

#include <future>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "obs/json_lite.h"

namespace fairclean {
namespace obs {
namespace {

TEST(CounterTest, IncrementsForwardToParent) {
  MetricsRegistry parent;
  MetricsRegistry scoped(&parent);
  scoped.GetCounter("c")->Increment();
  scoped.GetCounter("c")->Increment(4);
  EXPECT_EQ(scoped.GetCounter("c")->value(), 5u);
  EXPECT_EQ(parent.GetCounter("c")->value(), 5u);
}

TEST(GaugeTest, LastWriteWinsAndForwards) {
  MetricsRegistry parent;
  MetricsRegistry scoped(&parent);
  scoped.GetGauge("g")->Set(2.5);
  scoped.GetGauge("g")->Set(-1.0);
  EXPECT_DOUBLE_EQ(scoped.GetGauge("g")->value(), -1.0);
  EXPECT_DOUBLE_EQ(parent.GetGauge("g")->value(), -1.0);
}

TEST(HistogramTest, ObservationsLandInTheRightBuckets) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("h", {1.0, 10.0, 100.0});
  h->Observe(0.5);    // bucket 0 (<= 1)
  h->Observe(1.0);    // bucket 0 (boundary counts down)
  h->Observe(5.0);    // bucket 1
  h->Observe(50.0);   // bucket 2
  h->Observe(500.0);  // overflow bucket
  std::vector<uint64_t> buckets = h->bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_EQ(buckets[3], 1u);
  EXPECT_EQ(h->count(), 5u);
  EXPECT_DOUBLE_EQ(h->sum(), 556.5);
  EXPECT_DOUBLE_EQ(h->min(), 0.5);
  EXPECT_DOUBLE_EQ(h->max(), 500.0);
}

TEST(HistogramTest, PercentilesUseBucketUpperBoundsClampedToMinMax) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("p", {1.0, 10.0, 100.0});
  for (int i = 0; i < 90; ++i) h->Observe(0.5);
  for (int i = 0; i < 10; ++i) h->Observe(50.0);
  EXPECT_DOUBLE_EQ(h->Percentile(0.0), 0.5);
  EXPECT_DOUBLE_EQ(h->Percentile(100.0), 50.0);
  // p50 falls in the first bucket (bound 1.0) but clamps to max(min, ...).
  EXPECT_LE(h->Percentile(50.0), 1.0);
  EXPECT_GE(h->Percentile(50.0), 0.5);
  // p95 falls in the third bucket; its bound clamps to the exact max.
  EXPECT_DOUBLE_EQ(h->Percentile(95.0), 50.0);
}

TEST(HistogramTest, EmptyHistogramReportsZeros) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("empty", {1.0});
  EXPECT_EQ(h->count(), 0u);
  EXPECT_DOUBLE_EQ(h->min(), 0.0);
  EXPECT_DOUBLE_EQ(h->max(), 0.0);
  EXPECT_DOUBLE_EQ(h->Percentile(50.0), 0.0);
}

TEST(MetricsRegistryTest, InstrumentPointersAreStable) {
  MetricsRegistry registry;
  Counter* first = registry.GetCounter("stable");
  for (int i = 0; i < 100; ++i) {
    registry.GetCounter("filler_" + std::to_string(i));
  }
  EXPECT_EQ(registry.GetCounter("stable"), first);
}

TEST(MetricsRegistryTest, SnapshotIsSortedByName) {
  MetricsRegistry registry;
  registry.GetCounter("zebra");
  registry.GetGauge("alpha");
  registry.GetHistogram("middle", {1.0});
  std::vector<MetricSnapshot> snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[0].name, "alpha");
  EXPECT_EQ(snapshot[1].name, "middle");
  EXPECT_EQ(snapshot[2].name, "zebra");
}

TEST(MetricsRegistryTest, ToJsonlIsValidJsonPerLine) {
  MetricsRegistry registry;
  registry.GetCounter("jsonl.counter")->Increment(7);
  registry.GetGauge("jsonl.gauge")->Set(1.25);
  Histogram* h = registry.GetHistogram("jsonl.histogram", {0.1, 1.0});
  h->Observe(0.05);
  h->Observe(0.5);
  std::string jsonl = registry.ToJsonl();
  size_t lines = 0;
  size_t start = 0;
  while (start < jsonl.size()) {
    size_t end = jsonl.find('\n', start);
    ASSERT_NE(end, std::string::npos) << "missing trailing newline";
    std::string line = jsonl.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    ++lines;
    JsonValue value;
    std::string error;
    ASSERT_TRUE(JsonValue::Parse(line, &value, &error)) << error << ": "
                                                        << line;
    ASSERT_TRUE(value.is_object());
    EXPECT_NE(value.Find("metric"), nullptr);
    std::string type = value.StringOr("type", "");
    if (type == "counter") {
      EXPECT_DOUBLE_EQ(value.NumberOr("value", -1), 7.0);
    } else if (type == "gauge") {
      EXPECT_DOUBLE_EQ(value.NumberOr("value", -1), 1.25);
    } else if (type == "histogram") {
      EXPECT_DOUBLE_EQ(value.NumberOr("count", -1), 2.0);
      const JsonValue* bounds = value.Find("bounds");
      ASSERT_NE(bounds, nullptr);
      EXPECT_EQ(bounds->array_items.size(), 2u);
    } else {
      ADD_FAILURE() << "unexpected type " << type;
    }
  }
  EXPECT_EQ(lines, 3u);
}

TEST(MetricsRegistryTest, ConcurrentIncrementsFromPoolWorkersLoseNothing) {
  constexpr size_t kTasks = 32;
  constexpr size_t kIncrementsPerTask = 1000;
  MetricsRegistry parent;
  MetricsRegistry scoped(&parent);
  Counter* counter = scoped.GetCounter("concurrent.counter");
  Histogram* histogram =
      scoped.GetHistogram("concurrent.histogram", {0.25, 0.75});
  {
    ThreadPool pool(4);
    std::vector<std::future<void>> futures;
    for (size_t task = 0; task < kTasks; ++task) {
      futures.push_back(pool.Submit([counter, histogram, task] {
        for (size_t i = 0; i < kIncrementsPerTask; ++i) {
          counter->Increment();
          histogram->Observe(task % 2 == 0 ? 0.1 : 0.9);
        }
      }));
    }
    for (auto& future : futures) future.get();
  }
  EXPECT_EQ(counter->value(), kTasks * kIncrementsPerTask);
  EXPECT_EQ(parent.GetCounter("concurrent.counter")->value(),
            kTasks * kIncrementsPerTask);
  EXPECT_EQ(histogram->count(), kTasks * kIncrementsPerTask);
  std::vector<uint64_t> buckets = histogram->bucket_counts();
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_EQ(buckets[0], kTasks / 2 * kIncrementsPerTask);
  EXPECT_EQ(buckets[2], kTasks / 2 * kIncrementsPerTask);
}

TEST(MetricsRegistryTest, DefaultLatencyBoundsAreAscending) {
  const std::vector<double>& bounds =
      MetricsRegistry::DefaultLatencyBounds();
  ASSERT_GE(bounds.size(), 2u);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

// ----------------------------------------------- PercentileFromBuckets --

TEST(PercentileFromBucketsTest, EdgePercentilesReturnMinAndMax) {
  std::vector<double> bounds = {1.0, 10.0};
  std::vector<uint64_t> buckets = {3, 2, 0};
  EXPECT_DOUBLE_EQ(
      PercentileFromBuckets(bounds, buckets, 5, 0.2, 7.0, 0.0), 0.2);
  EXPECT_DOUBLE_EQ(
      PercentileFromBuckets(bounds, buckets, 5, 0.2, 7.0, -5.0), 0.2);
  EXPECT_DOUBLE_EQ(
      PercentileFromBuckets(bounds, buckets, 5, 0.2, 7.0, 100.0), 7.0);
  EXPECT_DOUBLE_EQ(
      PercentileFromBuckets(bounds, buckets, 5, 0.2, 7.0, 250.0), 7.0);
}

TEST(PercentileFromBucketsTest, EmptyDistributionIsZeroEverywhere) {
  std::vector<double> bounds = {1.0};
  std::vector<uint64_t> buckets = {0, 0};
  for (double p : {0.0, 50.0, 100.0}) {
    EXPECT_DOUBLE_EQ(PercentileFromBuckets(bounds, buckets, 0, 0.0, 0.0, p),
                     0.0)
        << "p=" << p;
  }
}

TEST(PercentileFromBucketsTest, SingleObservationIsEveryPercentile) {
  std::vector<double> bounds = {1.0, 10.0};
  std::vector<uint64_t> buckets = {0, 1, 0};
  for (double p : {0.0, 1.0, 50.0, 99.0, 100.0}) {
    // The bucket bound (10.0) clamps to the only value ever seen.
    EXPECT_DOUBLE_EQ(
        PercentileFromBuckets(bounds, buckets, 1, 4.2, 4.2, p), 4.2)
        << "p=" << p;
  }
}

TEST(PercentileFromBucketsTest, OverflowBucketClampsToMax) {
  // Everything above the last bound lands in the implicit overflow bucket,
  // which has no upper bound of its own — the observed max caps it.
  std::vector<double> bounds = {1.0};
  std::vector<uint64_t> buckets = {1, 9};
  EXPECT_DOUBLE_EQ(
      PercentileFromBuckets(bounds, buckets, 10, 0.5, 123.0, 95.0), 123.0);
  // The p that still lands in the first bucket uses its bound, floored at
  // the observed min.
  EXPECT_DOUBLE_EQ(
      PercentileFromBuckets(bounds, buckets, 10, 0.5, 123.0, 10.0), 1.0);
}

TEST(HistogramPercentileTest, SingleObservationAndOverflowEdges) {
  MetricsRegistry registry;
  Histogram* one = registry.GetHistogram("one", {1.0, 10.0});
  one->Observe(3.0);
  EXPECT_DOUBLE_EQ(one->Percentile(0.0), 3.0);
  EXPECT_DOUBLE_EQ(one->Percentile(50.0), 3.0);
  EXPECT_DOUBLE_EQ(one->Percentile(100.0), 3.0);

  Histogram* overflow = registry.GetHistogram("overflow", {1.0});
  overflow->Observe(50.0);   // overflow bucket
  overflow->Observe(500.0);  // overflow bucket
  EXPECT_DOUBLE_EQ(overflow->Percentile(100.0), 500.0);
  EXPECT_DOUBLE_EQ(overflow->Percentile(0.0), 50.0);
  // All mass beyond the last bound: bucket "upper" is the observed max.
  EXPECT_DOUBLE_EQ(overflow->Percentile(75.0), 500.0);
}

// -------------------------------------------------- NaN / Inf rejection --

TEST(DroppedSamplesTest, NonFiniteObservationsCountedNotRecorded) {
  Counter* dropped =
      MetricsRegistry::Global().GetCounter("obs.dropped_samples");
  uint64_t before = dropped->value();

  MetricsRegistry registry;
  Histogram* histogram = registry.GetHistogram("nan", {1.0});
  histogram->Observe(std::numeric_limits<double>::quiet_NaN());
  histogram->Observe(std::numeric_limits<double>::infinity());
  histogram->Observe(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(histogram->count(), 0u);

  EXPECT_EQ(dropped->value(), before + 3);

  // Finite observations still land after the rejected ones.
  histogram->Observe(0.5);
  EXPECT_EQ(histogram->count(), 1u);
  EXPECT_EQ(dropped->value(), before + 3);
}

}  // namespace
}  // namespace obs
}  // namespace fairclean
