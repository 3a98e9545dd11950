#include "fairness/fairness_metrics.h"

#include <cmath>
#include <limits>

namespace fairclean {

Result<GroupConfusion> ComputeGroupConfusion(const std::vector<int>& y_true,
                                             const std::vector<int>& y_pred,
                                             const GroupAssignment& groups) {
  if (y_true.size() != y_pred.size() ||
      y_true.size() != groups.privileged.size() ||
      y_true.size() != groups.disadvantaged.size()) {
    return Status::InvalidArgument("size mismatch in group confusion input");
  }
  GroupConfusion out;
  for (size_t i = 0; i < y_true.size(); ++i) {
    int t = y_true[i];
    int p = y_pred[i];
    if ((t != 0 && t != 1) || (p != 0 && p != 1)) {
      return Status::InvalidArgument("labels must be binary (0/1)");
    }
    ConfusionMatrix* cm = nullptr;
    if (groups.privileged[i]) {
      cm = &out.privileged;
    } else if (groups.disadvantaged[i]) {
      cm = &out.disadvantaged;
    } else {
      continue;  // excluded under intersectional definitions
    }
    if (t == 1 && p == 1) ++cm->tp;
    else if (t == 1 && p == 0) ++cm->fn;
    else if (t == 0 && p == 1) ++cm->fp;
    else ++cm->tn;
  }
  return out;
}

const char* FairnessMetricShortName(FairnessMetric metric) {
  switch (metric) {
    case FairnessMetric::kPredictiveParity:
      return "PP";
    case FairnessMetric::kEqualOpportunity:
      return "EO";
    case FairnessMetric::kDemographicParity:
      return "DP";
    case FairnessMetric::kFalsePositiveRateParity:
      return "FPRP";
    case FairnessMetric::kAccuracyParity:
      return "AP";
  }
  return "?";
}

const char* FairnessMetricName(FairnessMetric metric) {
  switch (metric) {
    case FairnessMetric::kPredictiveParity:
      return "predictive_parity";
    case FairnessMetric::kEqualOpportunity:
      return "equal_opportunity";
    case FairnessMetric::kDemographicParity:
      return "demographic_parity";
    case FairnessMetric::kFalsePositiveRateParity:
      return "false_positive_rate_parity";
    case FairnessMetric::kAccuracyParity:
      return "accuracy_parity";
  }
  return "?";
}

namespace {

double FalsePositiveRate(const ConfusionMatrix& cm) {
  int64_t denom = cm.fp + cm.tn;
  // A group with no negative labels has no false-positive rate. Returning
  // 0.0 here used to make such a group look perfectly calibrated and
  // silently shrink the FPR gap; NaN instead marks the repeat as degenerate
  // so the study driver retries or skips it.
  if (denom == 0) return std::numeric_limits<double>::quiet_NaN();
  return static_cast<double>(cm.fp) / static_cast<double>(denom);
}

}  // namespace

double FairnessGap(FairnessMetric metric, const GroupConfusion& confusion) {
  const ConfusionMatrix& priv = confusion.privileged;
  const ConfusionMatrix& dis = confusion.disadvantaged;
  switch (metric) {
    case FairnessMetric::kPredictiveParity:
      return priv.Precision() - dis.Precision();
    case FairnessMetric::kEqualOpportunity:
      return priv.Recall() - dis.Recall();
    case FairnessMetric::kDemographicParity:
      return priv.PositiveRate() - dis.PositiveRate();
    case FairnessMetric::kFalsePositiveRateParity:
      return FalsePositiveRate(priv) - FalsePositiveRate(dis);
    case FairnessMetric::kAccuracyParity:
      return priv.Accuracy() - dis.Accuracy();
  }
  return 0.0;
}

double AbsoluteFairnessGap(FairnessMetric metric,
                           const GroupConfusion& confusion) {
  return std::abs(FairnessGap(metric, confusion));
}

}  // namespace fairclean
