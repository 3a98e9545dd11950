// Fairness-aware cleaning selection: a working prototype of the paper's
// Section VII vision.
//
// The paper finds that for almost every case there exists at least one
// cleaning configuration that does not hurt fairness — the problem is
// choosing it. This example runs the missing-value experiment on the adult
// dataset and asks the selector for the best imputation method under two
// policies: maximize the fairness gain, and maximize the accuracy gain
// subject to not worsening fairness. It prints the full ranking with the
// admissibility constraint (neither accuracy nor fairness significantly
// worse than the dirty baseline).

#include <cstdio>

#include "common/random.h"
#include "core/fair_selector.h"
#include "datasets/generator.h"
#include "stats/tests.h"

namespace {

using namespace fairclean;  // NOLINT: example brevity

void PrintRanking(const std::vector<CleaningRecommendation>& ranking,
                  const char* policy) {
  std::printf("policy: %s\n", policy);
  std::printf("  %-22s %-11s %-26s %-26s\n", "method", "admissible",
              "fairness impact (delta)", "accuracy impact (delta)");
  for (const CleaningRecommendation& rec : ranking) {
    std::printf("  %-22s %-11s %-13s (%+.4f)     %-13s (%+.4f)\n",
                rec.method.c_str(), rec.admissible ? "yes" : "no",
                ImpactName(rec.impact.fairness), rec.impact.unfairness_delta,
                ImpactName(rec.impact.accuracy), rec.impact.accuracy_delta);
  }
  if (!ranking.empty() && ranking.front().admissible) {
    std::printf("  -> recommended: %s\n\n", ranking.front().method.c_str());
  } else {
    std::printf("  -> no admissible cleaning method (the paper finds 3 of "
                "40 such cases)\n\n");
  }
}

int Run() {
  // A malformed scale knob is a usage error: report it before any work.
  Result<StudyOptions> env_options = StudyOptionsFromEnv();
  if (!env_options.ok()) {
    std::fprintf(stderr, "%s\n", env_options.status().ToString().c_str());
    return 2;
  }
  StudyOptions options = *env_options;
  Rng rng(4711);
  Result<GeneratedDataset> dataset = MakeDataset("adult", 0, &rng);
  if (!dataset.ok()) {
    std::fprintf(stderr, "dataset generation failed: %s\n",
                 dataset.status().ToString().c_str());
    return 1;
  }

  options.sample_size = 1500;
  options.num_repeats = 8;
  std::printf("Tuning the missing-value cleaning of 'adult' for equal "
              "opportunity across sex groups...\n\n");
  Result<CleaningExperimentResult> experiment = RunCleaningExperiment(
      *dataset, "missing_values", LogRegFamily(), options);
  if (!experiment.ok()) {
    std::fprintf(stderr, "experiment failed: %s\n",
                 experiment.status().ToString().c_str());
    return 1;
  }

  double alpha = BonferroniAlpha(options.alpha, experiment->repaired.size());
  Result<std::vector<CleaningRecommendation>> fairness_first =
      SelectFairCleaning(*experiment, "sex",
                         FairnessMetric::kEqualOpportunity, alpha,
                         SelectionObjective::kMaxFairnessGain);
  if (!fairness_first.ok()) {
    std::fprintf(stderr, "selection failed: %s\n",
                 fairness_first.status().ToString().c_str());
    return 1;
  }
  PrintRanking(*fairness_first, "max fairness gain (EO, sex)");

  Result<std::vector<CleaningRecommendation>> accuracy_first =
      SelectFairCleaning(*experiment, "sex",
                         FairnessMetric::kEqualOpportunity, alpha,
                         SelectionObjective::kMaxAccuracyGain);
  if (accuracy_first.ok()) {
    PrintRanking(*accuracy_first,
                 "max accuracy gain subject to fairness not worsening");
  }

  // The intersectional target can prefer a different method — the paper's
  // point that the choice of group definition matters.
  Result<std::vector<CleaningRecommendation>> intersectional =
      SelectFairCleaning(*experiment, "sex*race",
                         FairnessMetric::kEqualOpportunity, alpha,
                         SelectionObjective::kMaxFairnessGain);
  if (intersectional.ok()) {
    PrintRanking(*intersectional, "max fairness gain (EO, sex*race)");
  }
  return 0;
}

}  // namespace

int main() { return Run(); }
