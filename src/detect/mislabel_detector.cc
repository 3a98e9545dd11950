#include "detect/mislabel_detector.h"

#include <cmath>

#include "common/thread_pool.h"
#include "data/split.h"
#include "ml/encoder.h"
#include "ml/logistic_regression.h"
#include "obs/trace.h"

namespace fairclean {

Result<ErrorMask> MislabelDetector::Detect(const DataFrame& frame,
                                           const DetectionContext& context,
                                           Rng* rng) const {
  obs::TraceSpan span("detect", "MislabelDetector::Detect");
  if (context.label_column.empty()) {
    return Status::InvalidArgument("mislabel detection requires a label");
  }
  if (rng == nullptr) {
    return Status::InvalidArgument("mislabel detection requires an rng");
  }
  size_t n = frame.num_rows();
  if (n < options_.num_folds) {
    return Status::InvalidArgument("fewer rows than folds");
  }

  FC_ASSIGN_OR_RETURN(std::vector<int> labels,
                      ExtractBinaryLabels(frame, context.label_column));

  FeatureEncoder encoder;
  FC_RETURN_IF_ERROR(encoder.Fit(frame, context.inspect_columns));
  FC_ASSIGN_OR_RETURN(Matrix features, encoder.Transform(frame));

  // Out-of-fold predicted probabilities P(y = 1 | x).
  double prior = 0.0;
  for (int label : labels) prior += label;
  prior /= static_cast<double>(n);
  std::vector<double> proba(n, prior);

  Rng fold_rng = rng->Fork(0xc1ea);
  std::vector<TrainTestIndices> folds =
      KFoldIndices(n, options_.num_folds, &fold_rng);

  // IRLS is deterministic and draws nothing, but the per-fold forks the
  // detector has always taken advance the parent engine: keep taking them
  // so every later draw from `rng` stays byte-identical.
  for (size_t f = 0; f < folds.size(); ++f) rng->Fork(0xf01d + f);
  LogisticRegressionOptions lr_options;
  lr_options.c = options_.logreg_c;

  struct FoldProba {
    bool ok = false;
    std::vector<double> held_p;
  };
  ThreadPool* pool = ThreadPool::SharedForFolds();
  std::vector<FoldProba> fold_probas =
      RunIndexed(pool, folds.size(), [&](size_t f) -> FoldProba {
        obs::TraceSpan fold_span("detect", [&] {
          return "mislabel oof fold " + std::to_string(f);
        });
        FoldProba result;
        LogisticRegression model(lr_options);
        Status st = model.FitRows(features, folds[f].train, labels);
        if (!st.ok()) return result;  // degenerate fold: keep prior rows

        Matrix held_x = features.TakeRows(folds[f].test);
        result.held_p = model.PredictProba(held_x);
        result.ok = true;
        return result;
      });
  // Slot-ordered writes: scatter each fold's probabilities in fold order
  // on the caller thread (fold test sets are disjoint, so this matches the
  // sequential loop exactly).
  for (size_t f = 0; f < folds.size(); ++f) {
    if (!fold_probas[f].ok) continue;
    for (size_t i = 0; i < folds[f].test.size(); ++i) {
      proba[folds[f].test[i]] = fold_probas[f].held_p[i];
    }
  }

  // Per-class expected self-confidence thresholds.
  double t1_sum = 0.0;
  double t0_sum = 0.0;
  size_t n1 = 0;
  size_t n0 = 0;
  for (size_t i = 0; i < n; ++i) {
    if (labels[i] == 1) {
      t1_sum += proba[i];
      ++n1;
    } else {
      t0_sum += 1.0 - proba[i];
      ++n0;
    }
  }
  if (n1 == 0 || n0 == 0) {
    return Status::InvalidArgument("labels are single-class");
  }
  double t1 = t1_sum / static_cast<double>(n1);
  double t0 = t0_sum / static_cast<double>(n0);

  // Off-diagonal entries of the confident joint: examples whose confident
  // label (probability above that class's threshold) contradicts the given
  // label.
  ErrorMask mask(n);
  for (size_t i = 0; i < n; ++i) {
    double p1 = proba[i];
    double p0 = 1.0 - p1;
    bool confident1 = p1 >= t1;
    bool confident0 = p0 >= t0;
    int confident_label;
    if (confident1 && confident0) {
      confident_label = p1 >= p0 ? 1 : 0;
    } else if (confident1) {
      confident_label = 1;
    } else if (confident0) {
      confident_label = 0;
    } else {
      continue;  // not confidently either class
    }
    if (confident_label != labels[i]) mask.FlagRow(i);
  }
  return mask;
}

}  // namespace fairclean
