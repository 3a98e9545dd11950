#include "core/fair_selector.h"

#include <algorithm>

namespace fairclean {

Result<std::vector<CleaningRecommendation>> SelectFairCleaning(
    const CleaningExperimentResult& result, const std::string& group_key,
    FairnessMetric metric, double alpha) {
  std::vector<CleaningRecommendation> recommendations;
  for (const auto& [method, series] : result.repaired) {
    CleaningRecommendation rec;
    rec.method = method;
    FC_ASSIGN_OR_RETURN(
        rec.impact,
        ComputeImpact(result.dirty, series, group_key, metric, alpha));
    rec.admissible = rec.impact.fairness != Impact::kWorse &&
                     rec.impact.accuracy != Impact::kWorse;
    recommendations.push_back(std::move(rec));
  }

  std::stable_sort(
      recommendations.begin(), recommendations.end(),
      [](const CleaningRecommendation& a, const CleaningRecommendation& b) {
        if (a.admissible != b.admissible) return a.admissible;
        // More negative unfairness delta = larger fairness gain.
        if (a.impact.unfairness_delta != b.impact.unfairness_delta) {
          return a.impact.unfairness_delta < b.impact.unfairness_delta;
        }
        return a.impact.accuracy_delta > b.impact.accuracy_delta;
      });
  return recommendations;
}

}  // namespace fairclean
