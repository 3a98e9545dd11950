#include "datasets/generator.h"

#include "obs/trace.h"

namespace fairclean {

Result<GeneratedDataset> MakeDataset(const std::string& name, size_t num_rows,
                                     Rng* rng) {
  obs::TraceSpan span("datasets", [&] { return "MakeDataset " + name; });
  if (name == "adult") return MakeAdultDataset(num_rows, rng);
  if (name == "folk") return MakeFolkDataset(num_rows, rng);
  if (name == "credit") return MakeCreditDataset(num_rows, rng);
  if (name == "german") return MakeGermanDataset(num_rows, rng);
  if (name == "heart") return MakeHeartDataset(num_rows, rng);
  return Status::NotFound("unknown dataset: " + name);
}

Result<DatasetSpec> DatasetSpecByName(const std::string& name) {
  DatasetSpec spec;
  spec.name = name;
  spec.intersectional = true;
  if (name == "adult") {
    spec.source = "census";
    spec.label = "income";
    spec.drop_variables = {"sex", "race"};
    spec.error_types = {"missing_values", "outliers", "mislabels"};
    spec.sensitive_attributes = {
        {"sex", GroupPredicate::CategoryEq("sex", "male")},
        {"race", GroupPredicate::CategoryEq("race", "white")},
    };
  } else if (name == "folk") {
    spec.source = "census";
    spec.label = "PINCP_50K";
    spec.drop_variables = {"SEX", "RAC1P"};
    spec.error_types = {"missing_values", "outliers", "mislabels"};
    spec.sensitive_attributes = {
        {"sex", GroupPredicate::CategoryEq("SEX", "male")},
        {"race", GroupPredicate::CategoryEq("RAC1P", "white")},
    };
  } else if (name == "credit") {
    spec.source = "finance";
    spec.label = "good_credit";
    spec.drop_variables = {"age"};
    spec.error_types = {"outliers", "mislabels"};
    spec.sensitive_attributes = {
        {"age", GroupPredicate::NumericGt("age", 30.0)},
    };
    spec.intersectional = false;
  } else if (name == "german") {
    spec.source = "finance";
    spec.label = "credit";
    // Listing 1 of the paper: age, personal_status and sex are hidden from
    // the classifier (foreign_worker is removed from the data entirely).
    spec.drop_variables = {"age", "personal_status", "sex"};
    spec.error_types = {"missing_values", "outliers", "mislabels"};
    spec.sensitive_attributes = {
        {"sex", GroupPredicate::CategoryEq("sex", "male")},
        {"age", GroupPredicate::NumericGt("age", 25.0)},
    };
  } else if (name == "heart") {
    spec.source = "healthcare";
    spec.label = "cardio";
    spec.drop_variables = {"gender", "age"};
    // No missing values at all (paper footnote 8).
    spec.error_types = {"outliers", "mislabels"};
    spec.sensitive_attributes = {
        {"sex", GroupPredicate::CategoryEq("gender", "male")},
        {"age", GroupPredicate::NumericGt("age", 45.0)},
    };
  } else {
    return Status::NotFound("unknown dataset: " + name);
  }
  return spec;
}

std::vector<std::string> AllDatasetNames() {
  return {"adult", "folk", "credit", "german", "heart"};
}

size_t DefaultRowCount(const std::string& name) {
  // Scaled-down stand-ins for the Table I row counts (the paper samples
  // 15,000 records per run anyway); german keeps its real size of 1,000.
  if (name == "adult") return 12000;
  if (name == "folk") return 15000;
  if (name == "credit") return 12000;
  if (name == "german") return 1000;
  if (name == "heart") return 14000;
  return 10000;
}

}  // namespace fairclean
