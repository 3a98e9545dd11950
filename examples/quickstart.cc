// Quickstart: the full fairclean pipeline on the german credit dataset.
//
// Generates the dataset, inspects it with every applicable error-detection
// strategy, runs the paper's dirty-vs-repaired experiment protocol for
// missing values with a logistic-regression model, and reports the impact
// of each imputation method on accuracy and fairness (predictive parity
// and equal opportunity) for the sex and age groups.
//
// The scale is fixed here (the StudyOptions defaults, 8 repeats) so the
// example runs in seconds; the FAIRCLEAN_* scale knobs drive run_suite.

#include <cstdio>

#include "common/random.h"
#include "core/disparity.h"
#include "core/runner.h"
#include "datasets/generator.h"
#include "stats/tests.h"

namespace {

using namespace fairclean;  // NOLINT: example brevity

int RunQuickstart() {
  StudyOptions options;
  options.num_repeats = 8;
  Rng rng(7);
  Result<GeneratedDataset> dataset = MakeDataset("german", 0, &rng);
  if (!dataset.ok()) {
    std::fprintf(stderr, "dataset generation failed: %s\n",
                 dataset.status().ToString().c_str());
    return 1;
  }
  std::printf("german credit dataset: %zu rows, %zu columns\n",
              dataset->frame.num_rows(), dataset->frame.num_columns());
  std::printf("label = %s, sensitive attributes:", dataset->spec.label.c_str());
  for (const SensitiveAttribute& attr : dataset->spec.sensitive_attributes) {
    std::printf(" %s (privileged: %s)", attr.name.c_str(),
                attr.privileged.Description().c_str());
  }
  std::printf("\n\n== RQ1: do detected errors track group membership? ==\n");

  DisparityOptions disparity_options;
  Rng disparity_rng(11);
  Result<std::vector<DisparityRow>> disparities = AnalyzeDisparities(
      *dataset, /*intersectional=*/false, disparity_options, &disparity_rng);
  if (!disparities.ok()) {
    std::fprintf(stderr, "disparity analysis failed: %s\n",
                 disparities.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", FormatDisparityTable(*disparities).c_str());

  std::printf("== RQ2: impact of auto-cleaning missing values ==\n");
  Result<CleaningExperimentResult> experiment = RunCleaningExperiment(
      *dataset, "missing_values", LogRegFamily(), options);
  if (!experiment.ok()) {
    std::fprintf(stderr, "experiment failed: %s\n",
                 experiment.status().ToString().c_str());
    return 1;
  }

  double alpha = BonferroniAlpha(options.alpha, experiment->repaired.size());
  for (const auto& [method, series] : experiment->repaired) {
    std::printf("\n  method %s:\n", method.c_str());
    for (const GroupDefinition& group : experiment->groups) {
      for (FairnessMetric metric : {FairnessMetric::kPredictiveParity,
                                    FairnessMetric::kEqualOpportunity}) {
        Result<ImpactOutcome> impact = ComputeImpact(
            experiment->dirty, series, group.key, metric, alpha);
        if (!impact.ok()) continue;
        std::printf(
            "    group %-10s %-3s: fairness %-13s (gap %+0.4f), accuracy "
            "%-13s (%+0.4f)\n",
            group.key.c_str(), FairnessMetricShortName(metric),
            ImpactName(impact->fairness), impact->unfairness_delta,
            ImpactName(impact->accuracy), impact->accuracy_delta);
      }
    }
  }
  std::printf("\nDone. Raw records collected: %zu\n",
              experiment->records.size());
  return 0;
}

}  // namespace

int main() { return RunQuickstart(); }
