// The Section VI deep-dive fold over hand-built cell results: every cell of
// the three error-type scopes gets score series whose impact-test outcome
// is fixed by (error type, cleaning method, metric), so each count the
// deep dive prints has an exact expected value. Missing cells and failed
// impact tests must surface as errors, as they do for Table XIV.

#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/cleaning.h"
#include "core/runner.h"
#include "ml/tuning.h"
#include "repair/imputer.h"
#include "sched/suite_runner.h"
#include "sched/suite_spec.h"

namespace fairclean {
namespace sched {
namespace {

constexpr double kAlpha = 0.05;

// Per-repeat jitter: keeps the paired differences non-constant, so every
// t statistic is finite.
const std::vector<double> kJitter = {0.0, 0.002, -0.002, 0.001, -0.001};

/// `base` shifted per repeat by `shift` (+ jitter), or, for a zero shift,
/// by an alternating noise that leaves the mean unchanged.
std::vector<double> Shifted(const std::vector<double>& base, double shift) {
  static const std::vector<double> kNoise = {0.01, -0.01, 0.01, -0.01, 0.0};
  std::vector<double> out(base.size());
  for (size_t i = 0; i < base.size(); ++i) {
    out[i] = base[i] + (shift == 0.0 ? kNoise[i] : shift + kJitter[i]);
  }
  return out;
}

struct Outcome {
  Impact fairness;
  Impact accuracy;
};

/// The planted outcome of one configuration:
///  - missing values: dummy imputation improves fairness and accuracy,
///    mode imputation changes nothing;
///  - outliers: iqr worsens fairness everywhere, if worsens PP only, sd
///    changes nothing;
///  - mislabels: PP worsens, EO improves at unchanged accuracy.
Outcome Planted(const std::string& error_type, const CleaningMethod& method,
                FairnessMetric metric) {
  const bool pp = metric == FairnessMetric::kPredictiveParity;
  if (error_type == "missing_values") {
    return method.categorical_impute == CategoricalImpute::kDummy
               ? Outcome{Impact::kBetter, Impact::kBetter}
               : Outcome{Impact::kInsignificant, Impact::kInsignificant};
  }
  if (error_type == "outliers") {
    if (method.detector == "outliers-iqr" ||
        (method.detector == "outliers-if" && pp)) {
      return {Impact::kWorse, Impact::kInsignificant};
    }
    return {Impact::kInsignificant, Impact::kInsignificant};
  }
  return {pp ? Impact::kWorse : Impact::kBetter, Impact::kInsignificant};
}

constexpr const char* kAttributes[] = {"sex", "race", "age"};
constexpr FairnessMetric kMetrics[] = {FairnessMetric::kPredictiveParity,
                                       FairnessMetric::kEqualOpportunity};

ScoreSeries DirtySeries() {
  ScoreSeries series;
  series.accuracy = Shifted({0.8, 0.8, 0.8, 0.8, 0.8}, 0.0);
  for (const char* attribute : kAttributes) {
    for (FairnessMetric metric : kMetrics) {
      series.unfairness[UnfairnessKey(attribute, metric)] =
          Shifted({0.1, 0.1, 0.1, 0.1, 0.1}, 0.0);
    }
  }
  return series;
}

/// The repaired series realizing the planted outcomes against `dirty`:
/// the fairness gap (0.1) halves or grows by half, accuracy (0.8) moves
/// by 0.05.
ScoreSeries RepairedSeries(const ScoreSeries& dirty,
                           const std::string& error_type,
                           const CleaningMethod& method) {
  auto shift = [](Impact impact, double better) {
    return impact == Impact::kBetter  ? better
           : impact == Impact::kWorse ? -better
                                      : 0.0;
  };
  ScoreSeries series;
  // The planted accuracy outcome is the same for both metrics.
  const Impact accuracy = Planted(error_type, method, kMetrics[0]).accuracy;
  series.accuracy = Shifted(dirty.accuracy, shift(accuracy, 0.05));
  for (const char* attribute : kAttributes) {
    for (FairnessMetric metric : kMetrics) {
      const std::string key = UnfairnessKey(attribute, metric);
      const Impact fairness = Planted(error_type, method, metric).fairness;
      series.unfairness[key] =
          Shifted(dirty.unfairness.at(key), shift(fairness, -0.05));
    }
  }
  return series;
}

/// Every cell of `scope`, keyed "<dataset>/<model>".
ScopeResults HandBuiltScope(const StudyScope& scope) {
  std::vector<CleaningMethod> methods =
      CleaningMethodsFor(scope.error_type).ValueOrDie();
  ScopeResults results;
  for (const std::string& dataset : scope.Datasets()) {
    for (const std::string& model : AllModelNames()) {
      auto artifact = std::make_shared<CellArtifact>();
      CleaningExperimentResult& result = artifact->result;
      result.dataset = dataset;
      result.error_type = scope.error_type;
      result.model = model;
      result.dirty = DirtySeries();
      for (const CleaningMethod& method : methods) {
        result.repaired[method.Name()] =
            RepairedSeries(result.dirty, scope.error_type, method);
      }
      results[dataset + "/" + model] = artifact;
    }
  }
  return results;
}

std::vector<StudyScope> Scopes() {
  return {MissingScope(), OutlierScope(), MislabelScope()};
}

TEST(DeepDiveFold, CountsEveryCaseOverAllThirtyNineCells) {
  DeepDive deep_dive;
  size_t cells = 0;
  for (const StudyScope& scope : Scopes()) {
    ScopeResults results = HandBuiltScope(scope);
    cells += results.size();
    Status folded = FoldDeepDive(results, scope, kAlpha, &deep_dive);
    ASSERT_TRUE(folded.ok()) << scope.error_type << ": " << folded.ToString();
  }
  ASSERT_EQ(cells, 39u);

  // 2 metrics x (6 + 7 + 7) single pairs.
  ASSERT_EQ(deep_dive.cases.size(), 40u);
  size_t non_worsening = 0;
  size_t improving = 0;
  size_t both = 0;
  for (const auto& [key, outcome] : deep_dive.cases) {
    non_worsening += outcome.non_worsening;
    improving += outcome.improving;
    both += outcome.both_improving;
  }
  // Missing values: all 12 cases improve fairness and accuracy. Outliers:
  // sd keeps all 14 non-worsening, none improves. Mislabels: the 7 EO
  // cases improve fairness only, the 7 PP cases only worsen.
  EXPECT_EQ(non_worsening, 12u + 14u + 7u);
  EXPECT_EQ(improving, 12u + 7u);
  EXPECT_EQ(both, 12u);
  EXPECT_FALSE(deep_dive.cases.at("PP/adult/sex/mislabels").non_worsening);
  EXPECT_TRUE(deep_dive.cases.at("EO/heart/age/mislabels").improving);
  EXPECT_FALSE(deep_dive.cases.at("EO/heart/age/mislabels").both_improving);

  // Every categorical imputation of the missing-values scope is listed,
  // the one that never wins with a zero count: 3 numeric imputations x 6
  // pairs x 3 models x 2 metrics = 108 wins for dummy.
  const std::map<std::string, int64_t> wins = {{"dummy", 108}, {"mode", 0}};
  EXPECT_EQ(deep_dive.categorical_wins, wins);

  // Per outlier detector: 3 numeric repairs x 7 pairs x 3 models x 2
  // metrics = 126 configurations.
  using Negatives = std::map<std::string, std::pair<int64_t, int64_t>>;
  const Negatives negatives = {{"outliers-if", {63, 126}},
                               {"outliers-iqr", {126, 126}},
                               {"outliers-sd", {0, 126}}};
  EXPECT_EQ(deep_dive.detector_negative, negatives);

  // One mean dirty accuracy per scope that holds the cell.
  ASSERT_EQ(deep_dive.dirty_accuracy.size(), 15u);
  EXPECT_EQ(deep_dive.dirty_accuracy.at("adult/knn").size(), 3u);
  EXPECT_EQ(deep_dive.dirty_accuracy.at("credit/xgboost").size(), 2u);
  EXPECT_NEAR(deep_dive.dirty_accuracy.at("german/log-reg")[0], 0.8, 1e-12);
}

TEST(DeepDiveFold, MissingCellIsAnError) {
  const StudyScope scope = OutlierScope();
  ScopeResults results = HandBuiltScope(scope);
  ASSERT_EQ(results.erase("heart/knn"), 1u);
  DeepDive deep_dive;
  Status folded = FoldDeepDive(results, scope, kAlpha, &deep_dive);
  EXPECT_EQ(folded.code(), StatusCode::kNotFound) << folded.ToString();
}

TEST(DeepDiveFold, FailedImpactTestIsAnError) {
  const StudyScope scope = MissingScope();
  ScopeResults results = HandBuiltScope(scope);
  auto broken = std::make_shared<CellArtifact>(*results.at("folk/xgboost"));
  broken->result.repaired.begin()->second.accuracy[2] =
      std::numeric_limits<double>::quiet_NaN();
  results["folk/xgboost"] = broken;
  DeepDive deep_dive;
  Status folded = FoldDeepDive(results, scope, kAlpha, &deep_dive);
  EXPECT_EQ(folded.code(), StatusCode::kInvalidArgument) << folded.ToString();
}

}  // namespace
}  // namespace sched
}  // namespace fairclean
