#include "core/runner.h"

#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "datasets/generator.h"

namespace fairclean {
namespace {

StudyOptions SmallStudy() {
  StudyOptions options;
  options.sample_size = 500;
  options.num_repeats = 3;
  options.cv_folds = 3;
  options.seed = 99;
  return options;
}

TEST(GroupDefinitionsTest, SingleAndIntersectional) {
  Rng rng(1);
  GeneratedDataset german = MakeDataset("german", 200, &rng).ValueOrDie();
  std::vector<GroupDefinition> groups = GroupDefinitionsFor(german.spec);
  ASSERT_EQ(groups.size(), 3u);  // sex, age, sex*age
  EXPECT_EQ(groups[0].key, "sex");
  EXPECT_FALSE(groups[0].intersectional);
  EXPECT_EQ(groups[2].key, "sex*age");
  EXPECT_TRUE(groups[2].intersectional);
}

TEST(GroupDefinitionsTest, NoIntersectionalForCredit) {
  Rng rng(2);
  GeneratedDataset credit = MakeDataset("credit", 200, &rng).ValueOrDie();
  std::vector<GroupDefinition> groups = GroupDefinitionsFor(credit.spec);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].key, "age");
}

TEST(UnfairnessKeyTest, Format) {
  EXPECT_EQ(UnfairnessKey("sex", FairnessMetric::kPredictiveParity),
            "sex/PP");
  EXPECT_EQ(UnfairnessKey("sex*age", FairnessMetric::kEqualOpportunity),
            "sex*age/EO");
}

class RunnerTest : public testing::Test {
 protected:
  static const CleaningExperimentResult& GermanMissing() {
    static const CleaningExperimentResult* result = [] {
      Rng rng(7);
      GeneratedDataset dataset =
          MakeDataset("german", 1000, &rng).ValueOrDie();
      auto* out = new CleaningExperimentResult(
          RunCleaningExperiment(dataset, "missing_values", LogRegFamily(),
                                SmallStudy())
              .ValueOrDie());
      return out;
    }();
    return *result;
  }
};

TEST_F(RunnerTest, ProducesAllMethodSeries) {
  const CleaningExperimentResult& result = GermanMissing();
  EXPECT_EQ(result.dataset, "german");
  EXPECT_EQ(result.error_type, "missing_values");
  EXPECT_EQ(result.model, "log-reg");
  EXPECT_EQ(result.repaired.size(), 6u);  // 3 numeric x 2 categorical
  EXPECT_EQ(result.dirty.accuracy.size(), 3u);
  for (const auto& [method, series] : result.repaired) {
    EXPECT_EQ(series.accuracy.size(), 3u) << method;
    EXPECT_EQ(series.f1.size(), 3u) << method;
  }
}

TEST_F(RunnerTest, ScoresAreValidMetrics) {
  const CleaningExperimentResult& result = GermanMissing();
  for (double accuracy : result.dirty.accuracy) {
    EXPECT_GE(accuracy, 0.0);
    EXPECT_LE(accuracy, 1.0);
  }
  for (const auto& [key, series] : result.dirty.unfairness) {
    for (double gap : series) {
      EXPECT_GE(gap, -1.0) << key;  // signed gaps
      EXPECT_LE(gap, 1.0) << key;
    }
  }
}

TEST_F(RunnerTest, UnfairnessSeriesCoverAllGroupsAndMetrics) {
  const CleaningExperimentResult& result = GermanMissing();
  ASSERT_EQ(result.groups.size(), 3u);
  // 3 groups x 5 metrics.
  EXPECT_EQ(result.dirty.unfairness.size(), 15u);
  EXPECT_TRUE(result.dirty.unfairness.count("sex/PP"));
  EXPECT_TRUE(result.dirty.unfairness.count("age/EO"));
  EXPECT_TRUE(result.dirty.unfairness.count("sex*age/PP"));
}

TEST_F(RunnerTest, RecordsContainConfusionCounts) {
  const CleaningExperimentResult& result = GermanMissing();
  EXPECT_GT(result.records.size(), 0u);
  // Dirty baseline record for repeat 0.
  std::vector<std::string> keys = result.records.KeysWithPrefix(
      "german/missing_values/dirty/log-reg/r0");
  EXPECT_FALSE(keys.empty());
  bool found_confusion = false;
  bool found_accuracy = false;
  for (const std::string& key : keys) {
    if (key.find("__sex_priv__tp") != std::string::npos) {
      found_confusion = true;
    }
    if (key.find("__test_acc") != std::string::npos) found_accuracy = true;
  }
  EXPECT_TRUE(found_confusion);
  EXPECT_TRUE(found_accuracy);
}

TEST_F(RunnerTest, ConfusionCountsSumToTestSetSize) {
  const CleaningExperimentResult& result = GermanMissing();
  const ResultStore& records = result.records;
  std::string prefix = "german/missing_values/dirty/log-reg/r0__sex_";
  double total = 0.0;
  for (const char* side : {"priv", "dis"}) {
    for (const char* cell : {"tn", "fp", "fn", "tp"}) {
      Result<double> value =
          records.Get(prefix + side + "__" + cell);
      ASSERT_TRUE(value.ok()) << prefix << side << "__" << cell;
      total += *value;
    }
  }
  // Single-attribute groups partition the test set (sample 500, test 25%).
  EXPECT_DOUBLE_EQ(total, 125.0);
}

TEST_F(RunnerTest, DeterministicAcrossReruns) {
  Rng rng(7);
  GeneratedDataset dataset = MakeDataset("german", 1000, &rng).ValueOrDie();
  Result<CleaningExperimentResult> rerun = RunCleaningExperiment(
      dataset, "missing_values", LogRegFamily(), SmallStudy());
  ASSERT_TRUE(rerun.ok());
  const CleaningExperimentResult& original = GermanMissing();
  ASSERT_EQ(rerun->dirty.accuracy.size(), original.dirty.accuracy.size());
  for (size_t i = 0; i < original.dirty.accuracy.size(); ++i) {
    EXPECT_DOUBLE_EQ(rerun->dirty.accuracy[i], original.dirty.accuracy[i]);
  }
}

TEST_F(RunnerTest, ComputeImpactWorksOnRunnerOutput) {
  const CleaningExperimentResult& result = GermanMissing();
  const ScoreSeries& series = result.repaired.begin()->second;
  Result<ImpactOutcome> impact =
      ComputeImpact(result.dirty, series, "sex",
                    FairnessMetric::kPredictiveParity, 0.05);
  ASSERT_TRUE(impact.ok());
  // Deltas are bounded by metric ranges.
  EXPECT_LE(std::abs(impact->unfairness_delta), 1.0);
  EXPECT_LE(std::abs(impact->accuracy_delta), 1.0);
}

TEST_F(RunnerTest, ComputeImpactRejectsUnknownGroup) {
  const CleaningExperimentResult& result = GermanMissing();
  const ScoreSeries& series = result.repaired.begin()->second;
  EXPECT_FALSE(ComputeImpact(result.dirty, series, "nationality",
                             FairnessMetric::kPredictiveParity, 0.05)
                   .ok());
}

TEST(RunnerErrorsTest, RejectsInapplicableErrorType) {
  Rng rng(8);
  GeneratedDataset heart = MakeDataset("heart", 500, &rng).ValueOrDie();
  Result<CleaningExperimentResult> result = RunCleaningExperiment(
      heart, "missing_values", LogRegFamily(), SmallStudy());
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace fairclean
