// The value of a suite dataset node: a DatasetHandle whose spec is there at
// once and whose rows are generated on first use, once, however many cell
// and figure nodes ask for them concurrently.

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "sched/suite_runner.h"
#include "sched/suite_spec.h"

namespace fairclean {
namespace sched {
namespace {

TEST(DatasetHandleTest, SpecIsImmediateAndRowsAreGeneratedOnce) {
  obs::MetricsRegistry metrics;
  obs::Counter* generated = metrics.GetCounter("sched.datasets_generated");
  const DatasetHandle handle(DatasetSpecByName("german").ValueOrDie(), 42,
                             generated);
  EXPECT_EQ(handle.spec().name, "german");
  EXPECT_TRUE(handle.spec().intersectional);
  EXPECT_EQ(generated->value(), 0u);

  // Concurrent first calls share one generation.
  std::vector<const GeneratedDataset*> rows(4, nullptr);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < rows.size(); ++i) {
    threads.emplace_back([&, i] {
      Result<const GeneratedDataset*> got = handle.Rows();
      if (got.ok()) rows[i] = *got;
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(generated->value(), 1u);
  ASSERT_NE(rows[0], nullptr);
  for (const GeneratedDataset* row : rows) EXPECT_EQ(row, rows[0]);

  // The rows are MakeSuiteDataset's, under the handle's spec.
  GeneratedDataset expected = MakeSuiteDataset("german", 42).ValueOrDie();
  ASSERT_EQ(rows[0]->frame.num_rows(), expected.frame.num_rows());
  EXPECT_EQ(rows[0]->true_labels, expected.true_labels);
  EXPECT_EQ(rows[0]->spec.label, handle.spec().label);
}

// An unknown dataset fails at its dataset node, before any cell runs and
// without generating anything.
TEST(DatasetHandleTest, UnknownDatasetFailsWithoutGenerating) {
  SuiteUnit unit;
  unit.name = "bogus";
  unit.scope.error_type = "missing_values";
  unit.scope.single_pairs = {{"nope", "sex"}};
  SuiteSpec spec{"bogus", {unit}};

  SuiteOptions options;
  options.cache_dir = "";
  options.threads = 1;
  SuiteScheduler scheduler(options);
  obs::Counter* generated =
      obs::MetricsRegistry::Global().GetCounter("sched.datasets_generated");
  const uint64_t before = generated->value();
  Status status = scheduler.RunSuite(spec, SuiteFilter::Parse(""));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound) << status.ToString();
  EXPECT_EQ(generated->value(), before);
  EXPECT_EQ(scheduler.AggregateDiagnostics().experiments, 0u);
}

}  // namespace
}  // namespace sched
}  // namespace fairclean
