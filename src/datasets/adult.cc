#include <cstdint>
#include <vector>

#include "common/check.h"
#include "datasets/gen_util.h"
#include "datasets/generator.h"

namespace fairclean {

namespace {

using internal_datasets::Beta;
using internal_datasets::Clamp;
using internal_datasets::MakeCategorical;
using internal_datasets::RoundedNormal;
using internal_datasets::Sigmoid;

const std::vector<std::string> kSexDict = {"male", "female"};
const std::vector<std::string> kRaceDict = {"white", "black", "asian",
                                            "amer-indian", "other"};
const std::vector<std::string> kWorkclassDict = {
    "private", "self-emp", "local-gov", "federal-gov", "unemployed", "other"};
const std::vector<std::string> kOccupationDict = {
    "exec-managerial", "prof-specialty", "tech-support", "sales",
    "craft-repair",    "adm-clerical",   "transport",    "service"};
const std::vector<std::string> kMaritalDict = {
    "married", "never-married", "divorced", "separated", "widowed"};

}  // namespace

Result<GeneratedDataset> MakeAdultDataset(size_t num_rows, Rng* rng) {
  if (num_rows == 0) num_rows = DefaultRowCount("adult");
  size_t n = num_rows;

  std::vector<int32_t> sex(n), race(n), workclass(n), occupation(n),
      marital(n);
  std::vector<double> age(n), education(n), hours(n), capital_gain(n),
      capital_loss(n), income(n);
  std::vector<int> true_labels(n);

  for (size_t i = 0; i < n; ++i) {
    sex[i] = rng->Bernoulli(0.67) ? 0 : 1;  // 0 = male (privileged)
    race[i] = static_cast<int32_t>(
        rng->Categorical({0.78, 0.10, 0.06, 0.03, 0.03}));
    bool male = sex[i] == 0;
    bool white = race[i] == 0;
    // Latent socioeconomic advantage in [0, 1]: the mechanism through which
    // group membership correlates with features, labels, and data quality.
    double adv = (0.55 * (male ? 1.0 : 0.0) + 0.45 * (white ? 1.0 : 0.0));

    age[i] = RoundedNormal(rng, 38.0 + 3.0 * adv, 13.0, 17.0, 90.0);
    education[i] = RoundedNormal(rng, 9.5 + 1.6 * adv, 2.6, 1.0, 16.0);
    hours[i] =
        RoundedNormal(rng, 38.0 + 4.0 * (male ? 1.0 : 0.0), 12.0, 1.0, 99.0);

    double employed_weight = 0.92 + 0.04 * adv;
    workclass[i] = static_cast<int32_t>(rng->Categorical(
        {0.62 * employed_weight, 0.10 * employed_weight,
         0.09 * employed_weight, 0.04 * employed_weight,
         1.02 - employed_weight, 0.05}));
    bool professional = education[i] >= 12.0;
    occupation[i] = static_cast<int32_t>(
        professional
            ? rng->Categorical({0.26, 0.28, 0.10, 0.16, 0.06, 0.08, 0.02,
                                0.04})
            : rng->Categorical({0.04, 0.04, 0.05, 0.12, 0.25, 0.16, 0.13,
                                0.21}));
    double married_p = Clamp(0.25 + 0.008 * (age[i] - 20.0) + 0.15 * adv,
                             0.05, 0.85);
    if (rng->Bernoulli(married_p)) {
      marital[i] = 0;
    } else {
      marital[i] =
          1 + static_cast<int32_t>(rng->Categorical({0.55, 0.25, 0.12, 0.08}));
    }

    // Heavy-tailed capital columns: the legitimate extremes that univariate
    // outlier detectors flag (privileged groups hold nonzero capital gains
    // more often, producing the flag-rate disparity of Fig. 1).
    capital_gain[i] = rng->Bernoulli(0.05 + 0.10 * adv)
                          ? std::round(rng->LogNormal(8.0, 1.6))
                          : 0.0;
    capital_loss[i] = rng->Bernoulli(0.03 + 0.035 * adv)
                          ? std::round(rng->LogNormal(7.3, 0.5))
                          : 0.0;

    // True label: earns more than 50k.
    double z = -2.55 + 0.17 * (education[i] - 9.5) +
               0.045 * (age[i] - 38.0) -
               0.0011 * (age[i] - 38.0) * (age[i] - 38.0) +
               0.024 * (hours[i] - 38.0) +
               (capital_gain[i] > 5000.0 ? 0.9 + 1.4 * (1.0 - adv) : 0.0) +
               0.5 * (male ? 1.0 : 0.0) + 0.4 * (white ? 1.0 : 0.0) +
               (marital[i] == 0 ? 0.55 : 0.0) + rng->Normal(0.0, 0.4);
    int true_label = rng->Bernoulli(Sigmoid(z)) ? 1 : 0;
    true_labels[i] = true_label;

    // Asymmetric label noise: deserving members of disadvantaged groups are
    // more likely recorded below 50k (historical under-reporting), while
    // privileged negatives are occasionally inflated.
    int observed = true_label;
    if (true_label == 1) {
      double flip = 0.05 + 0.06 * (1.0 - adv);
      if (rng->Bernoulli(flip)) observed = 0;
    } else {
      double flip = 0.035 + 0.025 * adv;
      if (rng->Bernoulli(flip)) observed = 1;
    }
    income[i] = observed;

    // Group- and outcome-correlated missingness (MNAR). Disadvantaged
    // groups have far higher missing rates (the paper's RQ1 finding), but
    // the *kind* of record that goes missing differs with how many axes of
    // disadvantage apply: for singly-disadvantaged people (white women,
    // black men) mostly negative-outcome records lack workclass/occupation,
    // while for the multiply-burdened intersectional group (black women)
    // it is the successes that go unrecorded. Dropping incomplete tuples
    // (the dirty protocol) therefore biases the model in opposite
    // directions for the single-attribute and the intersectional group —
    // which reproduces the paper's finding that cleaning missing values
    // worsens single-attribute equal opportunity while improving the
    // intersectional metrics.
    // The two mechanisms live in different columns so that dummy imputation
    // can learn them separately (the Section VI finding on dummy
    // imputation): workclass drops out of negative records of
    // singly-disadvantaged people, occupation out of positive records of
    // the intersectionally disadvantaged.
    int dis_axes = (male ? 0 : 1) + (white ? 0 : 1);
    double p_workclass_missing =
        dis_axes >= 1 ? (observed == 0 ? 0.60 : 0.04) : 0.05;
    double p_occupation_missing =
        dis_axes == 2 ? (observed == 1 ? 0.75 : 0.05) : 0.04;
    if (rng->Bernoulli(p_workclass_missing)) {
      workclass[i] = Column::kMissingCode;
    }
    if (rng->Bernoulli(p_occupation_missing)) {
      occupation[i] = Column::kMissingCode;
    }
    // Numeric missingness depends on the (high) value itself, so mean /
    // median / mode imputation fill in systematically different values.
    if (rng->Bernoulli(hours[i] > 45.0 ? 0.22 : 0.04)) {
      hours[i] = std::nan("");
    }
  }

  DataFrame frame;
  FC_RETURN_IF_ERROR(frame.AddColumn(Column::Numeric("age", std::move(age))));
  FC_RETURN_IF_ERROR(frame.AddColumn(
      MakeCategorical("workclass", kWorkclassDict, std::move(workclass))));
  FC_RETURN_IF_ERROR(frame.AddColumn(
      Column::Numeric("education_num", std::move(education))));
  FC_RETURN_IF_ERROR(frame.AddColumn(
      MakeCategorical("marital_status", kMaritalDict, std::move(marital))));
  FC_RETURN_IF_ERROR(frame.AddColumn(
      MakeCategorical("occupation", kOccupationDict, std::move(occupation))));
  FC_RETURN_IF_ERROR(
      frame.AddColumn(Column::Numeric("hours_per_week", std::move(hours))));
  FC_RETURN_IF_ERROR(frame.AddColumn(
      Column::Numeric("capital_gain", std::move(capital_gain))));
  FC_RETURN_IF_ERROR(frame.AddColumn(
      Column::Numeric("capital_loss", std::move(capital_loss))));
  FC_RETURN_IF_ERROR(
      frame.AddColumn(MakeCategorical("sex", kSexDict, std::move(sex))));
  FC_RETURN_IF_ERROR(
      frame.AddColumn(MakeCategorical("race", kRaceDict, std::move(race))));
  FC_RETURN_IF_ERROR(
      frame.AddColumn(Column::Numeric("income", std::move(income))));

  GeneratedDataset dataset;
  dataset.frame = std::move(frame);
  dataset.true_labels = std::move(true_labels);
  FC_ASSIGN_OR_RETURN(dataset.spec, DatasetSpecByName("adult"));
  return dataset;
}

}  // namespace fairclean
