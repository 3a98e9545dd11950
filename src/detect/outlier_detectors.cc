#include "detect/outlier_detectors.h"

#include <cmath>

#include "obs/trace.h"
#include "stats/descriptive.h"

namespace fairclean {

namespace {

Status CheckColumns(const DataFrame& frame, const DetectionContext& context) {
  if (context.inspect_columns.empty()) {
    return Status::InvalidArgument("no columns to inspect");
  }
  for (const std::string& name : context.inspect_columns) {
    if (!frame.HasColumn(name)) {
      return Status::NotFound("inspect column not found: " + name);
    }
  }
  return Status::OK();
}

}  // namespace

Result<ErrorMask> SdOutlierDetector::Detect(const DataFrame& frame,
                                            const DetectionContext& context,
                                            Rng* rng) const {
  (void)rng;
  obs::TraceSpan span("detect", "SdOutlierDetector::Detect");
  FC_RETURN_IF_ERROR(CheckColumns(frame, context));
  ErrorMask mask(frame.num_rows());
  for (const std::string& name : context.inspect_columns) {
    const Column& column = frame.column(name);
    if (!column.is_numeric()) continue;
    Result<double> mean = Mean(column.values());
    Result<double> sd = SampleStdDev(column.values());
    if (!mean.ok() || !sd.ok() || *sd == 0.0) continue;
    double lo = *mean - num_stddevs_ * *sd;
    double hi = *mean + num_stddevs_ * *sd;
    for (size_t row = 0; row < column.size(); ++row) {
      double v = column.Value(row);
      if (std::isfinite(v) && (v < lo || v > hi)) mask.FlagCell(name, row);
    }
  }
  return mask;
}

Result<ErrorMask> IqrOutlierDetector::Detect(const DataFrame& frame,
                                             const DetectionContext& context,
                                             Rng* rng) const {
  (void)rng;
  obs::TraceSpan span("detect", "IqrOutlierDetector::Detect");
  FC_RETURN_IF_ERROR(CheckColumns(frame, context));
  ErrorMask mask(frame.num_rows());
  for (const std::string& name : context.inspect_columns) {
    const Column& column = frame.column(name);
    if (!column.is_numeric()) continue;
    Result<double> p25 = Percentile(column.values(), 25.0);
    Result<double> p75 = Percentile(column.values(), 75.0);
    if (!p25.ok() || !p75.ok()) continue;
    double iqr = *p75 - *p25;
    double lo = *p25 - k_ * iqr;
    double hi = *p75 + k_ * iqr;
    for (size_t row = 0; row < column.size(); ++row) {
      double v = column.Value(row);
      if (std::isfinite(v) && (v < lo || v > hi)) mask.FlagCell(name, row);
    }
  }
  return mask;
}

Result<ErrorMask> IsolationForestOutlierDetector::Detect(
    const DataFrame& frame, const DetectionContext& context, Rng* rng) const {
  obs::TraceSpan span("detect", "IsolationForestOutlierDetector::Detect");
  FC_RETURN_IF_ERROR(CheckColumns(frame, context));
  if (rng == nullptr) {
    return Status::InvalidArgument("outliers-if requires an rng");
  }
  size_t n = frame.num_rows();
  if (n == 0) return ErrorMask(0);

  // Numeric view: numeric columns as-is (missing -> column mean),
  // categorical columns as dictionary codes (missing -> modal code).
  Matrix view(n, context.inspect_columns.size());
  for (size_t c = 0; c < context.inspect_columns.size(); ++c) {
    const Column& column = frame.column(context.inspect_columns[c]);
    if (column.is_numeric()) {
      Result<double> mean = Mean(column.values());
      double fill = mean.ok() ? *mean : 0.0;
      for (size_t row = 0; row < n; ++row) {
        double v = column.Value(row);
        view(row, c) = std::isfinite(v) ? v : fill;
      }
    } else {
      Result<int32_t> mode = CodeMode(column.codes(), Column::kMissingCode);
      double fill = mode.ok() ? static_cast<double>(*mode) : 0.0;
      for (size_t row = 0; row < n; ++row) {
        int32_t code = column.Code(row);
        view(row, c) =
            code == Column::kMissingCode ? fill : static_cast<double>(code);
      }
    }
  }

  IsolationForest forest(options_);
  FC_RETURN_IF_ERROR(forest.Fit(view, rng));
  std::vector<bool> anomalies = forest.TrainingAnomalies();
  ErrorMask mask(n);
  for (size_t row = 0; row < n; ++row) {
    if (anomalies[row]) mask.FlagRow(row);
  }
  return mask;
}

}  // namespace fairclean
