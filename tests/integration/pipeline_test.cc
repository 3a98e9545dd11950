// End-to-end integration tests: generated dataset -> detection -> repair ->
// training -> fairness scoring -> impact classification, exercising the
// same paths the benchmark harness uses.

#include <cmath>

#include <gtest/gtest.h>

#include "core/disparity.h"
#include "core/runner.h"
#include "datasets/generator.h"
#include "ml/encoder.h"
#include "stats/tests.h"

namespace fairclean {
namespace {

StudyOptions TinyStudy() {
  StudyOptions options;
  options.sample_size = 600;
  options.num_repeats = 3;
  options.cv_folds = 3;
  options.seed = 4242;
  return options;
}

TEST(PipelineTest, MissingValueExperimentOnGermanEndToEnd) {
  Rng rng(1);
  GeneratedDataset dataset = MakeDataset("german", 1000, &rng).ValueOrDie();
  Result<CleaningExperimentResult> experiment = RunCleaningExperiment(
      dataset, "missing_values", LogRegFamily(), TinyStudy());
  ASSERT_TRUE(experiment.ok()) << experiment.status().ToString();

  double alpha = BonferroniAlpha(0.05, experiment->repaired.size());
  for (const auto& [method, series] : experiment->repaired) {
    for (const GroupDefinition& group : experiment->groups) {
      for (FairnessMetric metric : {FairnessMetric::kPredictiveParity,
                                    FairnessMetric::kEqualOpportunity}) {
        Result<ImpactOutcome> impact =
            ComputeImpact(experiment->dirty, series, group.key, metric,
                          alpha);
        ASSERT_TRUE(impact.ok()) << method << "/" << group.key;
      }
    }
  }
}

TEST(PipelineTest, OutlierExperimentOnHeartEndToEnd) {
  Rng rng(2);
  GeneratedDataset dataset = MakeDataset("heart", 2000, &rng).ValueOrDie();
  Result<CleaningExperimentResult> experiment =
      RunCleaningExperiment(dataset, "outliers", GbdtFamily(), TinyStudy());
  ASSERT_TRUE(experiment.ok()) << experiment.status().ToString();
  EXPECT_EQ(experiment->repaired.size(), 9u);
  for (const auto& [method, series] : experiment->repaired) {
    EXPECT_EQ(series.accuracy.size(), 3u) << method;
  }
}

TEST(PipelineTest, MislabelExperimentOnHeartImprovesAccuracy) {
  // The heart generator plants recoverable asymmetric label noise; with the
  // sample sizes used here, flipping detected mislabels should not tank
  // accuracy, and typically improves it (the paper's Table X-XIII shape).
  Rng rng(3);
  GeneratedDataset dataset = MakeDataset("heart", 4000, &rng).ValueOrDie();
  StudyOptions options = TinyStudy();
  options.sample_size = 1500;
  options.num_repeats = 4;
  Result<CleaningExperimentResult> experiment = RunCleaningExperiment(
      dataset, "mislabels", LogRegFamily(), options);
  ASSERT_TRUE(experiment.ok()) << experiment.status().ToString();
  const ScoreSeries& repaired = experiment->repaired.at("flip_mislabels");
  double mean_dirty = 0.0;
  double mean_repaired = 0.0;
  for (size_t i = 0; i < repaired.accuracy.size(); ++i) {
    mean_dirty += experiment->dirty.accuracy[i];
    mean_repaired += repaired.accuracy[i];
  }
  EXPECT_GT(mean_repaired, mean_dirty - 0.05 * repaired.accuracy.size());
}

TEST(PipelineTest, KnnFamilyRunsThroughTheProtocol) {
  Rng rng(4);
  GeneratedDataset dataset = MakeDataset("german", 600, &rng).ValueOrDie();
  StudyOptions options = TinyStudy();
  options.sample_size = 400;
  options.num_repeats = 2;
  Result<CleaningExperimentResult> experiment = RunCleaningExperiment(
      dataset, "missing_values", KnnFamily(), options);
  ASSERT_TRUE(experiment.ok()) << experiment.status().ToString();
  EXPECT_EQ(experiment->model, "knn");
}

TEST(PipelineTest, DisparityAnalysisFeedsSignificanceTest) {
  Rng rng(5);
  GeneratedDataset dataset = MakeDataset("adult", 4000, &rng).ValueOrDie();
  DisparityOptions options;
  Rng analysis_rng(6);
  std::vector<DisparityRow> rows =
      AnalyzeDisparities(dataset, false, options, &analysis_rng)
          .ValueOrDie();
  // All five strategies ran on both sensitive attributes.
  EXPECT_EQ(rows.size(), 10u);
}

TEST(PipelineTest, ResultRecordsRoundTripThroughJson) {
  Rng rng(8);
  GeneratedDataset dataset = MakeDataset("german", 600, &rng).ValueOrDie();
  StudyOptions options = TinyStudy();
  options.sample_size = 300;
  options.num_repeats = 2;
  Result<CleaningExperimentResult> experiment = RunCleaningExperiment(
      dataset, "mislabels", LogRegFamily(), options);
  ASSERT_TRUE(experiment.ok());
  std::string json = experiment->records.ToJson();
  Result<ResultStore> parsed = ResultStore::FromJson(json);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->size(), experiment->records.size());
}

}  // namespace
}  // namespace fairclean
