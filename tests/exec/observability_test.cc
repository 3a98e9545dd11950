// The observability layer must only observe: with FAIRCLEAN_TRACE and
// FAIRCLEAN_METRICS active the driver's scores, cell records and slices
// must be byte-identical to an uninstrumented run.

#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/safe_io.h"
#include "datasets/generator.h"
#include "exec/study_driver.h"
#include "obs/json_lite.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fairclean {
namespace exec {
namespace {

StudyOptions SmallStudy() {
  StudyOptions options;
  options.sample_size = 300;
  options.num_repeats = 3;
  options.cv_folds = 3;
  options.seed = 99;
  return options;
}

const GeneratedDataset& German() {
  static const GeneratedDataset* dataset = [] {
    Rng rng(7);
    return new GeneratedDataset(
        MakeDataset("german", 500, &rng).ValueOrDie());
  }();
  return *dataset;
}

/// Runs the small experiment into `cache_dir` and returns every produced
/// cache file keyed by filename.
std::map<std::string, std::string> RunAndCollectCache(
    const std::string& cache_dir, const std::string& error_type) {
  std::filesystem::remove_all(cache_dir);
  StudyDriverOptions options;
  options.study = SmallStudy();
  options.cache_dir = cache_dir;
  StudyDriver driver(options);
  EXPECT_TRUE(driver.RunOrLoad(German(), error_type, "log-reg").ok());
  std::map<std::string, std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(cache_dir)) {
    Result<std::string> content = ReadFileToString(entry.path().string());
    EXPECT_TRUE(content.ok()) << entry.path();
    files[entry.path().filename().string()] = content.ok() ? *content : "";
  }
  std::filesystem::remove_all(cache_dir);
  return files;
}

class ObservabilityTest : public testing::Test {
 protected:
  void TearDown() override {
    obs::Tracer::Global().Disable();
    obs::MetricsRegistry::Global().DisableExport();
    std::filesystem::remove(trace_path_);
    std::filesystem::remove(metrics_path_);
  }

  void EnableObservability(const char* tag) {
    trace_path_ = testing::TempDir() + "/obs_trace_" + tag + ".json";
    metrics_path_ = testing::TempDir() + "/obs_metrics_" + tag + ".jsonl";
    obs::Tracer::Global().Enable(trace_path_);
    obs::MetricsRegistry::Global().EnableExport(metrics_path_);
  }

  std::string trace_path_;
  std::string metrics_path_;
};

TEST_F(ObservabilityTest, CacheFilesAreByteIdenticalWithTracingEnabled) {
  const std::string base = testing::TempDir() + "/obs_identity_";
  std::map<std::string, std::string> plain =
      RunAndCollectCache(base + "off", "missing_values");

  EnableObservability("identity");
  std::map<std::string, std::string> traced =
      RunAndCollectCache(base + "on", "missing_values");

  ASSERT_FALSE(plain.empty());
  ASSERT_EQ(plain.size(), traced.size());
  for (const auto& [name, content] : plain) {
    ASSERT_TRUE(traced.count(name)) << name;
    EXPECT_EQ(traced.at(name), content) << name;
  }
}

TEST_F(ObservabilityTest, TraceCoversEveryInstrumentedLayer) {
  EnableObservability("layers");
  // Outlier cleaning exercises detectors and repairs on top of the shared
  // exec / ml / data instrumentation. Two cells run on two threads, the
  // way the suite fans drivers out.
  const std::string base = testing::TempDir() + "/obs_layers_";
  std::thread other(
      [&] { RunAndCollectCache(base + "missing", "missing_values"); });
  RunAndCollectCache(base + "outliers", "outliers");
  other.join();
  obs::Tracer::Global().Flush();

  Result<std::string> text = ReadFileToString(trace_path_);
  ASSERT_TRUE(text.ok());
  obs::JsonValue root;
  std::string error;
  ASSERT_TRUE(obs::JsonValue::Parse(*text, &root, &error)) << error;
  const obs::JsonValue* events = root.Find("traceEvents");
  ASSERT_NE(events, nullptr);

  std::set<std::string> categories;
  std::set<double> span_tids;
  for (const obs::JsonValue& event : events->array_items) {
    if (event.StringOr("ph", "") == "X") {
      categories.insert(event.StringOr("cat", ""));
      span_tids.insert(event.NumberOr("tid", -1));
    }
  }
  for (const char* layer :
       {"exec", "core", "ml", "detect", "repair", "data", "io"}) {
    EXPECT_TRUE(categories.count(layer)) << "no spans from layer " << layer;
  }
  // Spans arrived from more than one thread.
  EXPECT_GE(span_tids.size(), 2u);
}

TEST_F(ObservabilityTest, MetricsExportIsValidJsonlWithDriverCounters) {
  EnableObservability("export");
  RunAndCollectCache(testing::TempDir() + "/obs_export_cache",
                     "missing_values");
  ASSERT_TRUE(
      obs::MetricsRegistry::Global().WriteJsonlFile(metrics_path_));

  Result<std::string> text = ReadFileToString(metrics_path_);
  ASSERT_TRUE(text.ok());
  std::set<std::string> names;
  size_t start = 0;
  while (start < text->size()) {
    size_t end = text->find('\n', start);
    if (end == std::string::npos) end = text->size();
    std::string line = text->substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    obs::JsonValue value;
    std::string error;
    ASSERT_TRUE(obs::JsonValue::Parse(line, &value, &error))
        << error << ": " << line;
    names.insert(value.StringOr("metric", ""));
  }
  for (const char* metric :
       {"driver.experiments", "driver.repeats_run", "driver.checkpoints",
        "driver.stage_wall_s.compute", "io.bytes_written"}) {
    EXPECT_TRUE(names.count(metric)) << "missing metric " << metric;
  }
}

}  // namespace
}  // namespace exec
}  // namespace fairclean
