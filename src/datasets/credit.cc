#include <cstdint>
#include <vector>

#include "common/check.h"
#include "datasets/gen_util.h"
#include "datasets/generator.h"

namespace fairclean {

namespace {

using internal_datasets::Beta;
using internal_datasets::Clamp;
using internal_datasets::RoundedNormal;
using internal_datasets::Sigmoid;

// Geometric-ish count of past-due events with success probability p.
int32_t PastDueCount(Rng* rng, double p) {
  int32_t count = 0;
  while (count < 12 && rng->Bernoulli(p)) ++count;
  return count;
}

}  // namespace

Result<GeneratedDataset> MakeCreditDataset(size_t num_rows, Rng* rng) {
  if (num_rows == 0) num_rows = DefaultRowCount("credit");
  size_t n = num_rows;

  std::vector<double> util(n), age(n), late30(n), debt_ratio(n), income(n),
      open_lines(n), late90(n), real_estate(n), late60(n), dependents(n),
      label(n);
  std::vector<int> true_labels(n);

  for (size_t i = 0; i < n; ++i) {
    age[i] = Clamp(std::round(21.0 + 64.0 * Beta(rng, 1.5, 2.2)), 21.0, 95.0);
    bool older = age[i] > 30.0;  // privileged group in the lending context

    // Latent financial stability improves with age.
    double stability = 0.35 * (older ? 1.0 : 0.0) +
                       0.01 * Clamp(age[i] - 30.0, 0.0, 30.0) +
                       rng->Normal(0.0, 0.8);

    // Revolving utilization: mostly in [0, 1.1], but ~1% of rows carry the
    // absurd magnitudes present in the real GiveMeSomeCredit file — the
    // legitimate-looking recording artifacts that IQR flags en masse.
    double true_util = Clamp(Beta(rng, 1.1, 2.6) * 1.15 - 0.12 * stability,
                             0.0, 1.3);
    util[i] = rng->Bernoulli(0.012) ? std::round(rng->LogNormal(6.0, 2.0))
                                    : true_util;

    double late_p = Clamp(0.16 - 0.05 * stability + 0.25 * true_util, 0.01,
                          0.7);
    int32_t true_late30 = PastDueCount(rng, late_p);
    int32_t true_late60 = PastDueCount(rng, late_p * 0.45);
    int32_t true_late90 = PastDueCount(rng, late_p * 0.3);

    income[i] = std::round(rng->LogNormal(8.55 + 0.18 * stability, 0.55));
    double true_debt = rng->LogNormal(-1.1 + 0.1 * true_util, 1.0);
    // DebtRatio recording errors (real file: thousands when income absent).
    debt_ratio[i] = rng->Bernoulli(0.015)
                        ? std::round(rng->LogNormal(6.5, 1.2))
                        : true_debt;
    open_lines[i] =
        Clamp(std::round(rng->LogNormal(1.95 + 0.08 * stability, 0.55)), 0.0,
              60.0);
    real_estate[i] =
        Clamp(std::round(rng->LogNormal(-0.3 + 0.4 * stability, 0.8)), 0.0,
              20.0);
    dependents[i] = RoundedNormal(rng, 0.8, 1.1, 0.0, 10.0);

    // Delinquency risk from the *true* quantities: the sentinel/recording
    // errors below corrupt the observation, not the outcome.
    // Past-due history is decisive for young applicants with thin credit
    // files; the same counts matter less for older applicants with long
    // histories. Zeroing the counts during outlier repair therefore hurts
    // the model most on the disadvantaged (young) group.
    double late_weight = older ? 1.0 : 1.9;
    double risk_z = -3.3 + 2.8 * true_util +
                    1.3 * late_weight *
                        std::log1p(static_cast<double>(true_late30)) +
                    1.9 * late_weight *
                        std::log1p(static_cast<double>(true_late90)) +
                    1.4 * late_weight *
                        std::log1p(static_cast<double>(true_late60)) +
                    0.4 * std::log1p(Clamp(true_debt, 0.0, 10.0)) -
                    0.6 * std::log(income[i] / 5200.0 + 0.2) -
                    0.03 * (age[i] - 45.0);
    int delinquent = rng->Bernoulli(Sigmoid(risk_z)) ? 1 : 0;
    int good_credit = 1 - delinquent;
    true_labels[i] = good_credit;

    // Sentinel-value data errors in the past-due counts (the real dataset
    // records 96/98 for "unknown"): a genuine error an outlier repair can
    // actually fix.
    late30[i] = rng->Bernoulli(0.004) ? 98.0 : true_late30;
    late60[i] = rng->Bernoulli(0.003) ? 96.0 : true_late60;
    late90[i] = rng->Bernoulli(0.003) ? 98.0 : true_late90;

    // Mild asymmetric label noise: young good creditors are more likely to
    // be mislabeled as delinquent.
    int observed = good_credit;
    if (good_credit == 1) {
      if (rng->Bernoulli(older ? 0.02 : 0.045)) observed = 0;
    } else {
      if (rng->Bernoulli(0.03)) observed = 1;
    }
    label[i] = observed;
  }

  DataFrame frame;
  FC_RETURN_IF_ERROR(frame.AddColumn(
      Column::Numeric("revolving_utilization", std::move(util))));
  FC_RETURN_IF_ERROR(frame.AddColumn(Column::Numeric("age", std::move(age))));
  FC_RETURN_IF_ERROR(frame.AddColumn(
      Column::Numeric("times_past_due_30_59", std::move(late30))));
  FC_RETURN_IF_ERROR(
      frame.AddColumn(Column::Numeric("debt_ratio", std::move(debt_ratio))));
  FC_RETURN_IF_ERROR(
      frame.AddColumn(Column::Numeric("monthly_income", std::move(income))));
  FC_RETURN_IF_ERROR(frame.AddColumn(
      Column::Numeric("open_credit_lines", std::move(open_lines))));
  FC_RETURN_IF_ERROR(frame.AddColumn(
      Column::Numeric("times_past_due_90", std::move(late90))));
  FC_RETURN_IF_ERROR(frame.AddColumn(
      Column::Numeric("real_estate_loans", std::move(real_estate))));
  FC_RETURN_IF_ERROR(frame.AddColumn(
      Column::Numeric("times_past_due_60_89", std::move(late60))));
  FC_RETURN_IF_ERROR(
      frame.AddColumn(Column::Numeric("dependents", std::move(dependents))));
  FC_RETURN_IF_ERROR(
      frame.AddColumn(Column::Numeric("good_credit", std::move(label))));

  GeneratedDataset dataset;
  dataset.frame = std::move(frame);
  dataset.true_labels = std::move(true_labels);
  FC_ASSIGN_OR_RETURN(dataset.spec, DatasetSpecByName("credit"));
  return dataset;
}

}  // namespace fairclean
