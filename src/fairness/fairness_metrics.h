#ifndef FAIRCLEAN_FAIRNESS_FAIRNESS_METRICS_H_
#define FAIRCLEAN_FAIRNESS_FAIRNESS_METRICS_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "fairness/group.h"
#include "ml/metrics.h"

namespace fairclean {

/// Confusion matrices aggregated per group — the "raw" representation the
/// paper's framework records so that any group fairness metric can be
/// derived afterwards.
struct GroupConfusion {
  ConfusionMatrix privileged;
  ConfusionMatrix disadvantaged;
};

/// Tallies group-wise confusion matrices from parallel label/prediction
/// vectors and a group assignment. Rows excluded from both groups (possible
/// under intersectional definitions) are ignored.
Result<GroupConfusion> ComputeGroupConfusion(const std::vector<int>& y_true,
                                             const std::vector<int>& y_pred,
                                             const GroupAssignment& groups);

/// Group fairness metrics. The paper reports predictive parity and equal
/// opportunity; the remaining three are provided as extensions since the
/// framework records full confusion matrices.
enum class FairnessMetric {
  /// Precision difference (privileged - disadvantaged).
  kPredictiveParity,
  /// Recall / true-positive-rate difference.
  kEqualOpportunity,
  /// Positive-prediction-rate difference (demographic parity).
  kDemographicParity,
  /// False-positive-rate difference (the second half of equalized odds).
  kFalsePositiveRateParity,
  /// Accuracy difference.
  kAccuracyParity,
};

/// Paper-style short name ("PP", "EO", "DP", "FPRP", "AP").
const char* FairnessMetricShortName(FairnessMetric metric);
/// Long name ("predictive_parity", ...).
const char* FairnessMetricName(FairnessMetric metric);

/// Signed disparity (privileged-group value minus disadvantaged-group
/// value) of `metric` on the group confusion matrices. Zero disparity means
/// the metric is satisfied. The false-positive-rate gap is NaN when either
/// group has no negative labels — the rate is undefined there, and callers
/// (fold scoring, the study driver) treat the repeat as degenerate rather
/// than read a fake gap of zero.
double FairnessGap(FairnessMetric metric, const GroupConfusion& confusion);

/// |FairnessGap| — the unfairness score compared between dirty and repaired
/// models in the study (smaller is fairer).
double AbsoluteFairnessGap(FairnessMetric metric,
                           const GroupConfusion& confusion);

}  // namespace fairclean

#endif  // FAIRCLEAN_FAIRNESS_FAIRNESS_METRICS_H_
