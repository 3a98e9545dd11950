#ifndef FAIRCLEAN_OBS_METRICS_H_
#define FAIRCLEAN_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace fairclean {
namespace obs {

class Counter;

namespace internal {
extern std::atomic<bool> g_metrics_export_enabled;

/// Process-wide obs.dropped_samples counter (non-finite observations).
/// Lives in the global registry; created on first drop.
Counter* DroppedSamplesCounter();
}  // namespace internal

/// True when the global registry will be exported at exit
/// (FAIRCLEAN_METRICS). Instrumentation that must pay a clock read to
/// record a value gates on TraceEnabled() || MetricsExportEnabled().
inline bool MetricsExportEnabled() {
  return internal::g_metrics_export_enabled.load(std::memory_order_relaxed);
}

/// Monotonic counter. Increment is one relaxed fetch_add.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }

  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-written-value gauge.
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }

  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Histogram over fixed bucket bounds. An observation lands in the first
/// bucket whose upper bound is >= the value; values above the last bound go
/// to an implicit overflow bucket. Tracks count/sum/min/max exactly and
/// estimates percentiles from the bucket distribution.
class Histogram {
 public:
  void Observe(double value);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double min() const;
  double max() const;

  /// Estimated value at percentile `p` in [0,100]: the upper bound of the
  /// bucket where the p-th observation falls, clamped to [min, max]. Exact
  /// for p=0/100; bucket-resolution otherwise.
  double Percentile(double p) const;

  const std::vector<double>& bounds() const { return bounds_; }
  std::vector<uint64_t> bucket_counts() const;

 private:
  friend class MetricsRegistry;
  explicit Histogram(std::vector<double> bounds);

  std::vector<double> bounds_;  // ascending upper bounds
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;
  std::atomic<double> max_;
};

/// Point-in-time copy of one instrument, for export and summaries.
struct MetricSnapshot {
  enum class Kind { kCounter, kGauge, kHistogram };
  Kind kind = Kind::kCounter;
  std::string name;
  double value = 0.0;     // counter / gauge
  uint64_t count = 0;     // histogram
  double sum = 0.0;       // histogram
  double min = 0.0;       // histogram (0 when count == 0)
  double max = 0.0;       // histogram (0 when count == 0)
  double p50 = 0.0;       // histogram
  double p95 = 0.0;       // histogram
  double p99 = 0.0;       // histogram
  std::vector<double> bounds;          // histogram
  std::vector<uint64_t> bucket_counts; // histogram, bounds.size() + 1
};

/// Named instrument registry. Instruments are created on first use and have
/// stable addresses for the registry's lifetime, so hot paths cache the
/// pointer and never re-lock.
///
/// Instrumented code records on MetricsRegistry::Global(), the
/// process-wide registry that FAIRCLEAN_METRICS=<path> exports as JSONL at
/// exit. Like the tracer, metrics only observe: no randomness, no
/// control-flow changes.
class MetricsRegistry {
 public:
  /// Process-wide sink (reads FAIRCLEAN_METRICS on first use).
  static MetricsRegistry& Global();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  /// `bounds` are ascending upper bounds; used only on first creation.
  Histogram* GetHistogram(const std::string& name,
                          const std::vector<double>& bounds);

  /// Starts exporting this registry as JSONL to `path` at process exit.
  void EnableExport(const std::string& path);
  void DisableExport();
  std::string export_path() const;

  /// Writes the export file now (atomically, via temp file + rename); the
  /// process-exit hook EnableExport registers calls it.
  /// Returns false when no export path is configured or the write fails.
  bool FlushExport();

  /// All instruments, sorted by name.
  std::vector<MetricSnapshot> Snapshot() const;

  /// One JSON object per line, e.g.
  ///   {"metric":"driver.retries","type":"counter","value":2}
  std::string ToJsonl() const;

  /// Writes ToJsonl() to `path`. Returns false on IO failure.
  bool WriteJsonlFile(const std::string& path) const;

  /// Human-readable one-line-per-instrument summary (bench reports).
  std::string FormatSummary() const;

  /// Bucket bounds in seconds suited to stage / span latencies
  /// (1ms .. 100s, roughly geometric).
  static const std::vector<double>& DefaultLatencyBounds();

 private:
  mutable std::mutex mutex_;  // guards the maps and export path
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::string export_path_;
  bool atexit_registered_ = false;
};

/// Percentile estimate from a bucket distribution: the upper bound of the
/// bucket holding the p-th observation, clamped to [min, max]. Backs
/// Histogram::Percentile.
double PercentileFromBuckets(const std::vector<double>& bounds,
                             const std::vector<uint64_t>& bucket_counts,
                             uint64_t count, double min, double max,
                             double p);

}  // namespace obs
}  // namespace fairclean

#endif  // FAIRCLEAN_OBS_METRICS_H_
