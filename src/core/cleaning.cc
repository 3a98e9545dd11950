#include "core/cleaning.h"

#include "common/strings.h"
#include "detect/detector.h"
#include "repair/label_repair.h"
#include "repair/outlier_repair.h"

namespace fairclean {

namespace {

// Rows of `frame` with no missing value in any feature column.
std::vector<bool> CompleteFeatureRows(const DataFrame& frame,
                                      const std::vector<std::string>& features) {
  std::vector<bool> keep(frame.num_rows(), true);
  for (const std::string& name : features) {
    const Column& column = frame.column(name);
    for (size_t row = 0; row < column.size(); ++row) {
      if (column.IsMissing(row)) keep[row] = false;
    }
  }
  return keep;
}

}  // namespace

std::string CleaningMethod::Name() const {
  if (error_type == "missing_values") {
    return StrFormat("impute_%s_%s", NumericImputeName(numeric_impute),
                     CategoricalImputeName(categorical_impute));
  }
  if (error_type == "outliers") {
    return StrFormat("%s__impute_%s", detector.c_str(),
                     NumericImputeName(numeric_impute));
  }
  return "flip_mislabels";
}

Result<std::vector<CleaningMethod>> CleaningMethodsFor(
    const std::string& error_type) {
  std::vector<CleaningMethod> methods;
  if (error_type == "missing_values") {
    for (NumericImpute numeric :
         {NumericImpute::kMean, NumericImpute::kMedian, NumericImpute::kMode}) {
      for (CategoricalImpute categorical :
           {CategoricalImpute::kMode, CategoricalImpute::kDummy}) {
        CleaningMethod method;
        method.error_type = error_type;
        method.detector = "missing_values";
        method.numeric_impute = numeric;
        method.categorical_impute = categorical;
        methods.push_back(method);
      }
    }
    return methods;
  }
  if (error_type == "outliers") {
    for (const char* detector : {"outliers-sd", "outliers-iqr", "outliers-if"}) {
      for (NumericImpute numeric : {NumericImpute::kMean,
                                    NumericImpute::kMedian,
                                    NumericImpute::kMode}) {
        CleaningMethod method;
        method.error_type = error_type;
        method.detector = detector;
        method.numeric_impute = numeric;
        methods.push_back(method);
      }
    }
    return methods;
  }
  if (error_type == "mislabels") {
    CleaningMethod method;
    method.error_type = error_type;
    method.detector = "mislabels";
    methods.push_back(method);
    return methods;
  }
  return Status::NotFound("unknown error type: " + error_type);
}

Result<PreparedData> PrepareBase(const DataFrame& train_raw,
                                 const DataFrame& test_raw,
                                 const DatasetSpec& spec,
                                 const std::string& error_type) {
  PreparedData base;
  if (error_type == "missing_values") {
    base.train = train_raw;
    base.test = test_raw;
    return base;
  }
  // Outlier/mislabel experiments operate on complete tuples.
  std::vector<std::string> features = spec.FeatureColumns(train_raw);
  base.train = train_raw.FilterRows(CompleteFeatureRows(train_raw, features));
  base.test = test_raw.FilterRows(CompleteFeatureRows(test_raw, features));
  if (base.train.num_rows() == 0 || base.test.num_rows() == 0) {
    return Status::InvalidArgument("no complete tuples left");
  }
  return base;
}

Result<PreparedData> MakeDirtyVersion(const PreparedData& base,
                                      const DatasetSpec& spec,
                                      const std::string& error_type) {
  PreparedData dirty;
  if (error_type != "missing_values") {
    // Outliers / mislabels: the dirty version keeps the data as-is.
    dirty = base;
    return dirty;
  }
  std::vector<std::string> features = spec.FeatureColumns(base.train);
  dirty.train =
      base.train.FilterRows(CompleteFeatureRows(base.train, features));
  if (dirty.train.num_rows() == 0) {
    return Status::InvalidArgument("all training tuples have missing values");
  }
  // Test tuples cannot be dropped at prediction time: impute mean/dummy
  // with statistics from the (complete) dirty training rows.
  dirty.test = base.test;
  MissingValueImputer imputer(NumericImpute::kMean, CategoricalImpute::kDummy);
  FC_RETURN_IF_ERROR(imputer.Fit(dirty.train, features));
  FC_RETURN_IF_ERROR(imputer.Apply(&dirty.test));
  return dirty;
}

Result<PreparedData> MakeRepairedVersion(const PreparedData& base,
                                         const DatasetSpec& spec,
                                         const CleaningMethod& method,
                                         Rng* rng) {
  std::vector<std::string> features = spec.FeatureColumns(base.train);
  PreparedData repaired = base;

  if (method.error_type == "missing_values") {
    MissingValueImputer imputer(method.numeric_impute,
                                method.categorical_impute);
    FC_RETURN_IF_ERROR(imputer.Fit(repaired.train, features));
    FC_RETURN_IF_ERROR(imputer.Apply(&repaired.train));
    FC_RETURN_IF_ERROR(imputer.Apply(&repaired.test));
    return repaired;
  }

  FC_ASSIGN_OR_RETURN(std::unique_ptr<ErrorDetector> detector,
                      DetectorByName(method.detector));
  DetectionContext context;
  context.inspect_columns = features;
  context.label_column = spec.label;

  if (method.error_type == "outliers") {
    Rng train_rng = rng->Fork(0x0071);
    FC_ASSIGN_OR_RETURN(ErrorMask train_mask,
                        detector->Detect(repaired.train, context, &train_rng));
    Rng test_rng = rng->Fork(0x0072);
    FC_ASSIGN_OR_RETURN(ErrorMask test_mask,
                        detector->Detect(repaired.test, context, &test_rng));
    OutlierRepairer repairer(method.numeric_impute);
    FC_RETURN_IF_ERROR(repairer.Fit(repaired.train, train_mask, features));
    FC_RETURN_IF_ERROR(repairer.Apply(&repaired.train, train_mask));
    FC_RETURN_IF_ERROR(repairer.Apply(&repaired.test, test_mask));
    return repaired;
  }

  if (method.error_type == "mislabels") {
    Rng train_rng = rng->Fork(0x1a8e1);
    FC_ASSIGN_OR_RETURN(ErrorMask train_mask,
                        detector->Detect(repaired.train, context, &train_rng));
    // Labels are never flipped on the test set (paper Section V).
    FC_ASSIGN_OR_RETURN(
        size_t flipped,
        FlipFlaggedLabels(&repaired.train, train_mask, spec.label));
    (void)flipped;
    return repaired;
  }

  return Status::NotFound("unknown error type: " + method.error_type);
}

}  // namespace fairclean
