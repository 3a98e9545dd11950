// Lending audit: the paper's finance motivation scenario.
//
// A bank retrains a credit-scoring model nightly on freshly ingested data
// and wants to know whether its automated outlier cleaning changes who gets
// approved. This example runs the dirty-vs-repaired protocol on the credit
// dataset for all nine outlier cleaning configurations and reports, per
// configuration, the impact on overall accuracy, on predictive parity (the
// bank's precision interest) and on equal opportunity (the applicants'
// recall interest) across age groups.

#include <cstdio>

#include "common/random.h"
#include "core/runner.h"
#include "datasets/generator.h"
#include "stats/descriptive.h"
#include "stats/tests.h"

namespace {

using namespace fairclean;  // NOLINT: example brevity

int Run() {
  // A malformed scale knob is a usage error: report it before any work.
  Result<StudyOptions> env_options = StudyOptionsFromEnv();
  if (!env_options.ok()) {
    std::fprintf(stderr, "%s\n", env_options.status().ToString().c_str());
    return 2;
  }
  StudyOptions options = *env_options;
  Rng rng(2024);
  Result<GeneratedDataset> dataset = MakeDataset("credit", 0, &rng);
  if (!dataset.ok()) {
    std::fprintf(stderr, "dataset generation failed: %s\n",
                 dataset.status().ToString().c_str());
    return 1;
  }
  std::printf("credit dataset: %zu applicants, label = %s, sensitive "
              "attribute: age (privileged: %s)\n\n",
              dataset->frame.num_rows(), dataset->spec.label.c_str(),
              dataset->spec.sensitive_attributes[0]
                  .privileged.Description()
                  .c_str());

  options.sample_size = 1500;
  options.num_repeats = 8;
  Result<CleaningExperimentResult> experiment =
      RunCleaningExperiment(*dataset, "outliers", LogRegFamily(), options);
  if (!experiment.ok()) {
    std::fprintf(stderr, "experiment failed: %s\n",
                 experiment.status().ToString().c_str());
    return 1;
  }

  Result<double> dirty_acc = Mean(experiment->dirty.accuracy);
  std::printf("dirty baseline: accuracy %.4f, |PP gap| %.4f, |EO gap| %.4f\n\n",
              dirty_acc.ok() ? *dirty_acc : 0.0,
              *Mean(experiment->dirty.unfairness.at("age/PP")),
              *Mean(experiment->dirty.unfairness.at("age/EO")));

  double alpha = BonferroniAlpha(options.alpha, experiment->repaired.size());
  std::printf("%-28s %-24s %-28s %-28s\n", "cleaning configuration",
              "accuracy", "predictive parity (bank)",
              "equal opportunity (applicants)");
  for (const auto& [method, series] : experiment->repaired) {
    Result<ImpactOutcome> pp = ComputeImpact(
        experiment->dirty, series, "age", FairnessMetric::kPredictiveParity,
        alpha);
    Result<ImpactOutcome> eo = ComputeImpact(
        experiment->dirty, series, "age", FairnessMetric::kEqualOpportunity,
        alpha);
    if (!pp.ok() || !eo.ok()) continue;
    std::printf("%-28s %-13s (%+.4f) %-17s (%+.4f) %-17s (%+.4f)\n",
                method.c_str(), ImpactName(pp->accuracy),
                pp->accuracy_delta, ImpactName(pp->fairness),
                pp->unfairness_delta, ImpactName(eo->fairness),
                eo->unfairness_delta);
  }

  std::printf(
      "\nReading the table: a 'worse' in the fairness columns means the gap "
      "between age groups widened after automated cleaning — the paper's "
      "central warning. Deltas are changes in mean |gap| (negative = "
      "fairer) and mean accuracy (positive = more accurate).\n");
  return 0;
}

}  // namespace

int main() { return Run(); }
