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
// As in the real dataset, personal_status encodes combinations of sex and
// marital status; the paper derives the sex attribute from it.
const std::vector<std::string> kPersonalStatusDict = {
    "male_single", "male_married", "male_divorced", "female_married_divorced",
    "female_single"};
const std::vector<std::string> kCheckingDict = {"no_account", "lt_0",
                                                "0_to_200", "ge_200"};
const std::vector<std::string> kCreditHistoryDict = {
    "critical", "delayed", "existing_paid", "all_paid", "no_credits"};
const std::vector<std::string> kPurposeDict = {
    "car_new", "car_used", "furniture", "radio_tv", "education", "business"};
const std::vector<std::string> kSavingsDict = {"lt_100", "100_to_500",
                                               "500_to_1000", "ge_1000",
                                               "unknown"};
const std::vector<std::string> kEmploymentDict = {
    "unemployed", "lt_1y", "1_to_4y", "4_to_7y", "ge_7y"};
const std::vector<std::string> kHousingDict = {"rent", "own", "free"};
const std::vector<std::string> kJobDict = {"unskilled", "skilled",
                                           "management", "self_employed"};

}  // namespace

Result<GeneratedDataset> MakeGermanDataset(size_t num_rows, Rng* rng) {
  if (num_rows == 0) num_rows = DefaultRowCount("german");
  size_t n = num_rows;

  std::vector<int32_t> personal_status(n), checking(n), history(n),
      purpose(n), savings(n), employment(n), housing(n), job(n), sex(n);
  std::vector<double> age(n), duration(n), amount(n), installment_rate(n),
      existing_credits(n), dependents(n), label(n);
  std::vector<int> true_labels(n);

  for (size_t i = 0; i < n; ++i) {
    sex[i] = rng->Bernoulli(0.69) ? 0 : 1;  // 0 = male (privileged)
    bool male = sex[i] == 0;
    age[i] = Clamp(std::round(19.0 + 56.0 * Beta(rng, 1.6, 3.2)), 19.0, 75.0);
    bool older = age[i] > 25.0;  // privileged group

    if (male) {
      personal_status[i] =
          static_cast<int32_t>(rng->Categorical({0.55, 0.32, 0.13}));
    } else {
      personal_status[i] =
          3 + static_cast<int32_t>(rng->Categorical({0.67, 0.33}));
    }

    double wealth = 0.35 * (older ? 1.0 : 0.0) + 0.2 * (male ? 1.0 : 0.0) +
                    rng->Normal(0.0, 1.0);

    checking[i] = static_cast<int32_t>(rng->Categorical(
        {0.39, 0.28 - 0.05 * Clamp(wealth, -2.0, 2.0), 0.26,
         0.07 + 0.05 * Clamp(wealth, 0.0, 1.0)}));
    history[i] = static_cast<int32_t>(
        rng->Categorical({0.29, 0.09, 0.53, 0.05, 0.04}));
    purpose[i] = static_cast<int32_t>(
        rng->Categorical({0.23, 0.10, 0.18, 0.28, 0.09, 0.12}));
    savings[i] = static_cast<int32_t>(rng->Categorical(
        {0.60 - 0.1 * Clamp(wealth, -1.0, 1.0), 0.10, 0.06, 0.06, 0.18}));
    double employment_shift = Clamp((age[i] - 19.0) / 20.0, 0.0, 1.0);
    employment[i] = static_cast<int32_t>(rng->Categorical(
        {0.06, 0.17 * (1.3 - employment_shift), 0.34, 0.17,
         0.26 * (0.4 + employment_shift)}));
    housing[i] =
        static_cast<int32_t>(rng->Categorical({0.18, 0.71, 0.11}));
    job[i] = static_cast<int32_t>(
        rng->Categorical({0.22, 0.63, 0.10, 0.05}));

    duration[i] = Clamp(std::round(rng->LogNormal(2.95, 0.45)), 4.0, 72.0);
    amount[i] = std::round(rng->LogNormal(7.85, 0.75));
    installment_rate[i] = 1.0 + std::floor(rng->Uniform(0.0, 4.0));
    existing_credits[i] =
        1.0 + static_cast<double>(rng->Categorical({0.63, 0.31, 0.05, 0.01}));
    dependents[i] = rng->Bernoulli(0.15) ? 2.0 : 1.0;

    double z = 1.05 + 0.5 * wealth - 0.4 * std::log(amount[i] / 2500.0) -
               0.028 * (duration[i] - 20.0) +
               0.25 * (savings[i] >= 2 && savings[i] <= 3 ? 1.0 : 0.0) +
               0.35 * (checking[i] == 0 || checking[i] == 3 ? 1.0 : 0.0) +
               0.2 * (employment[i] >= 3 ? 1.0 : 0.0) -
               0.3 * (history[i] == 0 ? 1.0 : 0.0) +
               rng->Normal(0.0, 0.6);
    int good = rng->Bernoulli(Sigmoid(z)) ? 1 : 0;
    true_labels[i] = good;

    // Mild asymmetric noise: young applicants with good outcomes are more
    // likely to carry a bad recorded label.
    int observed = good;
    if (good == 1) {
      if (rng->Bernoulli(older ? 0.04 : 0.08)) observed = 0;
    } else {
      if (rng->Bernoulli(0.04)) observed = 1;
    }
    label[i] = observed;

    // Missingness pattern where the *privileged* group is flagged more
    // often — german is one of the paper's counterexamples to
    // "disadvantaged groups always have more missing values". Savings of
    // older applicants with good outcomes are the least recorded
    // (long-standing customers are not re-screened), and long durations go
    // unrecorded more often than short ones.
    if (rng->Bernoulli(older ? (observed == 1 ? 0.35 : 0.08)
                             : 0.06)) {
      savings[i] = Column::kMissingCode;
    }
    if (rng->Bernoulli(male ? 0.10 : 0.055)) {
      employment[i] = Column::kMissingCode;
    }
    if (rng->Bernoulli(duration[i] > 30.0 ? 0.12 : 0.035)) {
      duration[i] = std::nan("");
    }
  }

  DataFrame frame;
  FC_RETURN_IF_ERROR(frame.AddColumn(
      MakeCategorical("checking_status", kCheckingDict, std::move(checking))));
  FC_RETURN_IF_ERROR(
      frame.AddColumn(Column::Numeric("duration", std::move(duration))));
  FC_RETURN_IF_ERROR(frame.AddColumn(MakeCategorical(
      "credit_history", kCreditHistoryDict, std::move(history))));
  FC_RETURN_IF_ERROR(frame.AddColumn(
      MakeCategorical("purpose", kPurposeDict, std::move(purpose))));
  FC_RETURN_IF_ERROR(
      frame.AddColumn(Column::Numeric("credit_amount", std::move(amount))));
  FC_RETURN_IF_ERROR(frame.AddColumn(
      MakeCategorical("savings", kSavingsDict, std::move(savings))));
  FC_RETURN_IF_ERROR(frame.AddColumn(
      MakeCategorical("employment", kEmploymentDict, std::move(employment))));
  FC_RETURN_IF_ERROR(frame.AddColumn(
      Column::Numeric("installment_rate", std::move(installment_rate))));
  FC_RETURN_IF_ERROR(frame.AddColumn(MakeCategorical(
      "personal_status", kPersonalStatusDict, std::move(personal_status))));
  FC_RETURN_IF_ERROR(frame.AddColumn(Column::Numeric("age", std::move(age))));
  FC_RETURN_IF_ERROR(frame.AddColumn(
      MakeCategorical("housing", kHousingDict, std::move(housing))));
  FC_RETURN_IF_ERROR(frame.AddColumn(
      Column::Numeric("existing_credits", std::move(existing_credits))));
  FC_RETURN_IF_ERROR(
      frame.AddColumn(MakeCategorical("job", kJobDict, std::move(job))));
  FC_RETURN_IF_ERROR(
      frame.AddColumn(Column::Numeric("num_dependents", std::move(dependents))));
  FC_RETURN_IF_ERROR(
      frame.AddColumn(MakeCategorical("sex", kSexDict, std::move(sex))));
  FC_RETURN_IF_ERROR(
      frame.AddColumn(Column::Numeric("credit", std::move(label))));

  GeneratedDataset dataset;
  dataset.frame = std::move(frame);
  dataset.true_labels = std::move(true_labels);
  FC_ASSIGN_OR_RETURN(dataset.spec, DatasetSpecByName("german"));
  return dataset;
}

}  // namespace fairclean
