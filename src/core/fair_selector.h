#ifndef FAIRCLEAN_CORE_FAIR_SELECTOR_H_
#define FAIRCLEAN_CORE_FAIR_SELECTOR_H_

#include <string>
#include <vector>

#include "core/runner.h"

namespace fairclean {

/// A ranked cleaning recommendation produced by SelectFairCleaning.
struct CleaningRecommendation {
  std::string method;
  ImpactOutcome impact;
  /// True if the method satisfies the selection constraint (accuracy not
  /// significantly worse and fairness not significantly worse).
  bool admissible = false;
};

/// Fairness-aware cleaning selection — a working prototype of the paper's
/// Section VII vision ("a principled methodology for selecting an
/// appropriate cleaning procedure"): rank the cleaning methods evaluated in
/// `result` for one (group, fairness metric) target, admit only methods
/// whose accuracy AND fairness impacts are not significantly worse than the
/// dirty baseline, and order them by fairness gain (largest reduction of
/// |fairness gap| first, ties broken by accuracy gain). Returns all
/// methods (admissible first); the first admissible entry is the
/// recommendation, and an empty admissible set reproduces the paper's
/// "3 of 40 cases have no safe cleaning technique" situation. The advisor
/// server's `analyze` op ranks through this call.
Result<std::vector<CleaningRecommendation>> SelectFairCleaning(
    const CleaningExperimentResult& result, const std::string& group_key,
    FairnessMetric metric, double alpha);

}  // namespace fairclean

#endif  // FAIRCLEAN_CORE_FAIR_SELECTOR_H_
