#ifndef FAIRCLEAN_CORE_CLEANING_H_
#define FAIRCLEAN_CORE_CLEANING_H_

#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "data/dataframe.h"
#include "datasets/spec.h"
#include "repair/imputer.h"

namespace fairclean {

/// One automated cleaning configuration: an error type, the detection
/// strategy and the repair method — the unit the paper's tables aggregate
/// over (e.g. missing values repaired with mean/dummy imputation, or
/// IQR-detected outliers repaired with the median).
struct CleaningMethod {
  /// "missing_values", "outliers" or "mislabels".
  std::string error_type;
  /// Detection strategy ("missing_values", "outliers-sd", "outliers-iqr",
  /// "outliers-if", "mislabels").
  std::string detector;
  /// Numeric repair/imputation statistic (missing values and outliers).
  NumericImpute numeric_impute = NumericImpute::kMean;
  /// Categorical imputation (missing values only).
  CategoricalImpute categorical_impute = CategoricalImpute::kDummy;

  /// CleanML-style composite name, e.g. "impute_mean_dummy" for missing
  /// values, "outliers-iqr__impute_median" for outliers, "flip_mislabels"
  /// for label errors.
  std::string Name() const;
};

/// Enumerates the paper's cleaning configurations for an error type:
/// missing values -> {mean, median, mode} x {mode, dummy} = 6;
/// outliers -> {sd, iqr, if} x {mean, median, mode} = 9;
/// mislabels -> {flip} = 1.
Result<std::vector<CleaningMethod>> CleaningMethodsFor(
    const std::string& error_type);

/// A train/test pair flowing through the Fig. 3 protocol.
struct PreparedData {
  DataFrame train;
  DataFrame test;
};

/// Step 2a of the protocol: the "dirty" version for an error type.
///   missing_values: drop rows with missing feature values from the train
///     split; impute the test split with mean/dummy (one cannot drop tuples
///     at prediction time), fitted on the retained train rows.
///   outliers / mislabels: keep the data as-is (missing values, if any,
///     have been removed beforehand by PrepareBase).
Result<PreparedData> MakeDirtyVersion(const PreparedData& base,
                                      const DatasetSpec& spec,
                                      const std::string& error_type);

/// Step 2b: the repaired version under `method`. Detection runs per split;
/// repair statistics (imputation/replacement values) are fitted on the
/// train split and applied to both splits. Labels are never flipped on the
/// test split.
Result<PreparedData> MakeRepairedVersion(const PreparedData& base,
                                         const DatasetSpec& spec,
                                         const CleaningMethod& method,
                                         Rng* rng);

/// Shared preprocessing before dirty/repaired versions are derived: for
/// outlier and mislabel experiments the paper removes tuples with missing
/// values from the data beforehand; for missing-value experiments the raw
/// splits pass through unchanged.
Result<PreparedData> PrepareBase(const DataFrame& train_raw,
                                 const DataFrame& test_raw,
                                 const DatasetSpec& spec,
                                 const std::string& error_type);

}  // namespace fairclean

#endif  // FAIRCLEAN_CORE_CLEANING_H_
