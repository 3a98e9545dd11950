#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "obs/json_lite.h"
#include "obs/log.h"

namespace fairclean {
namespace obs {

namespace internal {

std::atomic<bool> g_metrics_export_enabled{false};

Counter* DroppedSamplesCounter() {
  static Counter* counter =
      MetricsRegistry::Global().GetCounter("obs.dropped_samples");
  return counter;
}

}  // namespace internal

namespace {

// CAS loops instead of C++20 atomic<double>::fetch_add / fetch_min so the
// code compiles on any conforming toolchain.
void AtomicAddDouble(std::atomic<double>* target, double delta) {
  double current = target->load(std::memory_order_relaxed);
  while (!target->compare_exchange_weak(current, current + delta,
                                        std::memory_order_relaxed)) {
  }
}

void AtomicMinDouble(std::atomic<double>* target, double value) {
  double current = target->load(std::memory_order_relaxed);
  while (value < current &&
         !target->compare_exchange_weak(current, value,
                                        std::memory_order_relaxed)) {
  }
}

void AtomicMaxDouble(std::atomic<double>* target, double value) {
  double current = target->load(std::memory_order_relaxed);
  while (value > current &&
         !target->compare_exchange_weak(current, value,
                                        std::memory_order_relaxed)) {
  }
}

std::string FormatDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  return buffer;
}

// Identifies the global registry without re-entering Global() (whose magic
// static would deadlock if EnableExport runs during its own initializer).
MetricsRegistry* g_global_instance = nullptr;

}  // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      buckets_(new std::atomic<uint64_t>[bounds_.size() + 1]),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {
  for (size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::Observe(double value) {
  if (!std::isfinite(value)) {
    // A NaN would poison min/max/sum (and land lower_bound in an arbitrary
    // bucket); account for it instead of recording it. The drop counts
    // once — the scoped histogram returns before forwarding to its parent.
    internal::DroppedSamplesCounter()->Increment();
    return;
  }
  size_t bucket = std::lower_bound(bounds_.begin(), bounds_.end(), value) -
                  bounds_.begin();
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAddDouble(&sum_, value);
  AtomicMinDouble(&min_, value);
  AtomicMaxDouble(&max_, value);
  if (parent_ != nullptr) parent_->Observe(value);
}

double Histogram::min() const {
  return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double Histogram::max() const {
  return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

std::vector<uint64_t> Histogram::bucket_counts() const {
  std::vector<uint64_t> out(bounds_.size() + 1);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

double PercentileFromBuckets(const std::vector<double>& bounds,
                             const std::vector<uint64_t>& bucket_counts,
                             uint64_t count, double min, double max,
                             double p) {
  if (count == 0) return 0.0;
  if (p <= 0.0) return min;
  if (p >= 100.0) return max;
  // Rank of the target observation (1-based, ceil).
  uint64_t rank = static_cast<uint64_t>(p / 100.0 * count);
  if (rank == 0) rank = 1;
  uint64_t cumulative = 0;
  for (size_t i = 0; i < bucket_counts.size(); ++i) {
    cumulative += bucket_counts[i];
    if (cumulative >= rank) {
      const double upper = i < bounds.size() ? bounds[i] : max;
      return std::clamp(upper, min, max);
    }
  }
  return max;
}

double Histogram::Percentile(double p) const {
  return PercentileFromBuckets(bounds_, bucket_counts(), count(), min(),
                               max(), p);
}

MetricsRegistry::MetricsRegistry(MetricsRegistry* parent) : parent_(parent) {}

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked for the same reason as Tracer: instruments must outlive any
  // late-exiting thread.
  static MetricsRegistry* registry = [] {
    auto* instance = new MetricsRegistry();
    g_global_instance = instance;
    const char* path = std::getenv("FAIRCLEAN_METRICS");
    if (path != nullptr && path[0] != '\0') instance->EnableExport(path);
    return instance;
  }();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (slot == nullptr) {
    slot.reset(new Counter());
    if (parent_ != nullptr) slot->parent_ = parent_->GetCounter(name);
  }
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (slot == nullptr) {
    slot.reset(new Gauge());
    if (parent_ != nullptr) slot->parent_ = parent_->GetGauge(name);
  }
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::vector<double>& bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (slot == nullptr) {
    slot.reset(new Histogram(bounds));
    if (parent_ != nullptr) {
      slot->parent_ = parent_->GetHistogram(name, bounds);
    }
  }
  return slot.get();
}

bool MetricsRegistry::FlushExport() {
  const std::string path = export_path();
  if (path.empty()) return false;
  // Temp file + rename so a reader (or a kill mid-write) never sees a
  // half-written snapshot.
  const std::string tmp = path + ".tmp";
  if (!WriteJsonlFile(tmp)) return false;
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

void MetricsRegistry::EnableExport(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  export_path_ = path;
  if (this == g_global_instance) {
    internal::g_metrics_export_enabled.store(true, std::memory_order_relaxed);
  }
  if (!atexit_registered_) {
    atexit_registered_ = true;
    std::atexit([] { MetricsRegistry::Global().FlushExport(); });
  }
}

void MetricsRegistry::DisableExport() {
  std::lock_guard<std::mutex> lock(mutex_);
  export_path_.clear();
  if (this == g_global_instance) {
    internal::g_metrics_export_enabled.store(false, std::memory_order_relaxed);
  }
}

std::string MetricsRegistry::export_path() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return export_path_;
}

std::vector<MetricSnapshot> MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<MetricSnapshot> out;
  out.reserve(counters_.size() + gauges_.size() + histograms_.size());
  // std::map iteration gives the sorted-by-name order; merge the three
  // kinds into one sorted list.
  for (const auto& [name, counter] : counters_) {
    MetricSnapshot snapshot;
    snapshot.kind = MetricSnapshot::Kind::kCounter;
    snapshot.name = name;
    snapshot.value = static_cast<double>(counter->value());
    out.push_back(std::move(snapshot));
  }
  for (const auto& [name, gauge] : gauges_) {
    MetricSnapshot snapshot;
    snapshot.kind = MetricSnapshot::Kind::kGauge;
    snapshot.name = name;
    snapshot.value = gauge->value();
    out.push_back(std::move(snapshot));
  }
  for (const auto& [name, histogram] : histograms_) {
    MetricSnapshot snapshot;
    snapshot.kind = MetricSnapshot::Kind::kHistogram;
    snapshot.name = name;
    snapshot.count = histogram->count();
    snapshot.sum = histogram->sum();
    snapshot.min = histogram->min();
    snapshot.max = histogram->max();
    snapshot.p50 = histogram->Percentile(50.0);
    snapshot.p95 = histogram->Percentile(95.0);
    snapshot.p99 = histogram->Percentile(99.0);
    snapshot.bounds = histogram->bounds();
    snapshot.bucket_counts = histogram->bucket_counts();
    out.push_back(std::move(snapshot));
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              return a.name < b.name;
            });
  return out;
}

namespace {

// One JSON object, shared by the JSONL export and the `metrics` op array.
void AppendMetricJson(std::ostringstream& out,
                      const MetricSnapshot& snapshot) {
  out << "{\"metric\":\"" << JsonEscape(snapshot.name) << "\"";
  switch (snapshot.kind) {
    case MetricSnapshot::Kind::kCounter:
      out << ",\"type\":\"counter\",\"value\":"
          << static_cast<uint64_t>(snapshot.value);
      break;
    case MetricSnapshot::Kind::kGauge:
      out << ",\"type\":\"gauge\",\"value\":"
          << FormatDouble(snapshot.value);
      break;
    case MetricSnapshot::Kind::kHistogram: {
      out << ",\"type\":\"histogram\",\"count\":" << snapshot.count
          << ",\"sum\":" << FormatDouble(snapshot.sum)
          << ",\"min\":" << FormatDouble(snapshot.min)
          << ",\"max\":" << FormatDouble(snapshot.max)
          << ",\"p50\":" << FormatDouble(snapshot.p50)
          << ",\"p95\":" << FormatDouble(snapshot.p95)
          << ",\"p99\":" << FormatDouble(snapshot.p99);
      out << ",\"bounds\":[";
      for (size_t i = 0; i < snapshot.bounds.size(); ++i) {
        out << (i == 0 ? "" : ",") << FormatDouble(snapshot.bounds[i]);
      }
      out << "],\"buckets\":[";
      for (size_t i = 0; i < snapshot.bucket_counts.size(); ++i) {
        out << (i == 0 ? "" : ",") << snapshot.bucket_counts[i];
      }
      out << "]";
      break;
    }
  }
  out << "}";
}

}  // namespace

std::string MetricsRegistry::ToJsonl() const {
  std::ostringstream out;
  for (const MetricSnapshot& snapshot : Snapshot()) {
    AppendMetricJson(out, snapshot);
    out << "\n";
  }
  return out.str();
}

std::string MetricsRegistry::ToJsonArray() const {
  std::ostringstream out;
  out << "[";
  bool first = true;
  for (const MetricSnapshot& snapshot : Snapshot()) {
    if (!first) out << ",";
    AppendMetricJson(out, snapshot);
    first = false;
  }
  out << "]";
  return out.str();
}

bool MetricsRegistry::WriteJsonlFile(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    FC_LOG_ERROR("metrics", "cannot write metrics file %s", path.c_str());
    return false;
  }
  out << ToJsonl();
  out.flush();
  return static_cast<bool>(out);
}

std::string MetricsRegistry::FormatSummary() const {
  std::ostringstream out;
  for (const MetricSnapshot& snapshot : Snapshot()) {
    switch (snapshot.kind) {
      case MetricSnapshot::Kind::kCounter:
        out << "  " << snapshot.name << " = "
            << static_cast<uint64_t>(snapshot.value) << "\n";
        break;
      case MetricSnapshot::Kind::kGauge:
        out << "  " << snapshot.name << " = " << FormatDouble(snapshot.value)
            << "\n";
        break;
      case MetricSnapshot::Kind::kHistogram: {
        char line[256];
        std::snprintf(line, sizeof(line),
                      "  %s: n=%llu sum=%.6g p50=%.6g p95=%.6g max=%.6g\n",
                      snapshot.name.c_str(),
                      static_cast<unsigned long long>(snapshot.count),
                      snapshot.sum, snapshot.p50, snapshot.p95, snapshot.max);
        out << line;
        break;
      }
    }
  }
  return out.str();
}

const std::vector<double>& MetricsRegistry::DefaultLatencyBounds() {
  static const std::vector<double> bounds = {
      0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
      0.05,   0.1,     0.25,   0.5,  1.0,    2.5,   5.0,  10.0,
      25.0,   50.0,    100.0};
  return bounds;
}

}  // namespace obs
}  // namespace fairclean
