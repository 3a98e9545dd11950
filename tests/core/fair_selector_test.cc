#include "core/fair_selector.h"

#include <gtest/gtest.h>

namespace fairclean {
namespace {

// Builds a synthetic experiment result with controlled score series so the
// selector's ranking is fully predictable.
ScoreSeries MakeSeries(double accuracy, double unfairness, size_t n = 8) {
  ScoreSeries series;
  for (size_t i = 0; i < n; ++i) {
    double wiggle = (i % 2 == 0) ? 0.002 : -0.002;
    series.accuracy.push_back(accuracy + wiggle);
    series.f1.push_back(accuracy + wiggle);
    series.unfairness["sex/PP"].push_back(unfairness + wiggle);
    series.unfairness["sex/EO"].push_back(unfairness + wiggle);
  }
  return series;
}

CleaningExperimentResult MakeExperiment() {
  CleaningExperimentResult result;
  result.dataset = "synthetic";
  result.error_type = "missing_values";
  result.model = "log-reg";
  result.dirty = MakeSeries(0.75, 0.20);
  // Method A: improves fairness, keeps accuracy.
  result.repaired["method_a"] = MakeSeries(0.75, 0.10);
  // Method B: improves fairness more, but tanks accuracy.
  result.repaired["method_b"] = MakeSeries(0.60, 0.05);
  // Method C: no change at all.
  result.repaired["method_c"] = MakeSeries(0.75, 0.20);
  // Method D: worsens fairness, improves accuracy.
  result.repaired["method_d"] = MakeSeries(0.85, 0.35);
  return result;
}

TEST(FairSelectorTest, RanksAdmissibleMethodsFirst) {
  CleaningExperimentResult experiment = MakeExperiment();
  Result<std::vector<CleaningRecommendation>> ranked = SelectFairCleaning(
      experiment, "sex", FairnessMetric::kPredictiveParity, 0.05);
  ASSERT_TRUE(ranked.ok());
  ASSERT_EQ(ranked->size(), 4u);
  // method_b is inadmissible (accuracy worse) despite best fairness gain;
  // method_d is inadmissible (fairness worse).
  EXPECT_EQ((*ranked)[0].method, "method_a");
  EXPECT_TRUE((*ranked)[0].admissible);
  EXPECT_EQ((*ranked)[0].impact.fairness, Impact::kBetter);
  for (const CleaningRecommendation& rec : *ranked) {
    if (rec.method == "method_b" || rec.method == "method_d") {
      EXPECT_FALSE(rec.admissible) << rec.method;
    }
  }
}

TEST(FairSelectorTest, NoChangeMethodIsAdmissibleButRankedBelowGains) {
  CleaningExperimentResult experiment = MakeExperiment();
  std::vector<CleaningRecommendation> ranked =
      SelectFairCleaning(experiment, "sex",
                         FairnessMetric::kPredictiveParity, 0.05)
          .ValueOrDie();
  size_t pos_a = 0;
  size_t pos_c = 0;
  for (size_t i = 0; i < ranked.size(); ++i) {
    if (ranked[i].method == "method_a") pos_a = i;
    if (ranked[i].method == "method_c") pos_c = i;
  }
  EXPECT_LT(pos_a, pos_c);
  EXPECT_TRUE(ranked[pos_c].admissible);
  EXPECT_EQ(ranked[pos_c].impact.fairness, Impact::kInsignificant);
}

TEST(FairSelectorTest, AllMethodsHarmfulYieldsNoAdmissible) {
  // Reproduces the paper's "no safe cleaning technique" cases (3 of 40).
  CleaningExperimentResult experiment;
  experiment.dirty = MakeSeries(0.75, 0.20);
  experiment.repaired["bad_1"] = MakeSeries(0.60, 0.30);
  experiment.repaired["bad_2"] = MakeSeries(0.75, 0.40);
  std::vector<CleaningRecommendation> ranked =
      SelectFairCleaning(experiment, "sex",
                         FairnessMetric::kPredictiveParity, 0.05)
          .ValueOrDie();
  for (const CleaningRecommendation& rec : ranked) {
    EXPECT_FALSE(rec.admissible);
  }
}

TEST(FairSelectorTest, UnknownGroupFails) {
  CleaningExperimentResult experiment = MakeExperiment();
  EXPECT_FALSE(SelectFairCleaning(experiment, "race",
                                  FairnessMetric::kPredictiveParity, 0.05)
                   .ok());
}

TEST(FairSelectorTest, StricterAlphaAdmitsBorderlineMethods) {
  CleaningExperimentResult experiment;
  experiment.dirty = MakeSeries(0.75, 0.20);
  // Slightly worse accuracy with noisy paired differences — significant at
  // 0.05 but not at 1e-9 (MakeSeries' deterministic wiggle would give
  // zero-variance differences, so perturb the repaired series).
  ScoreSeries borderline = MakeSeries(0.742, 0.12);
  for (size_t i = 0; i < borderline.accuracy.size(); ++i) {
    borderline.accuracy[i] += (i % 2 == 0 ? 0.001 : -0.001) *
                              static_cast<double>(i % 3);
  }
  experiment.repaired["borderline"] = borderline;
  std::vector<CleaningRecommendation> loose =
      SelectFairCleaning(experiment, "sex",
                         FairnessMetric::kPredictiveParity, 0.05)
          .ValueOrDie();
  std::vector<CleaningRecommendation> strict =
      SelectFairCleaning(experiment, "sex",
                         FairnessMetric::kPredictiveParity, 1e-9)
          .ValueOrDie();
  EXPECT_FALSE(loose[0].admissible);
  EXPECT_TRUE(strict[0].admissible);
}

}  // namespace
}  // namespace fairclean
