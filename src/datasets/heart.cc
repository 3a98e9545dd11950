#include <cstdint>
#include <vector>

#include "common/check.h"
#include "datasets/gen_util.h"
#include "datasets/generator.h"

namespace fairclean {

namespace {

using internal_datasets::Clamp;
using internal_datasets::MakeCategorical;
using internal_datasets::RoundedNormal;
using internal_datasets::Sigmoid;

const std::vector<std::string> kSexDict = {"male", "female"};

}  // namespace

Result<GeneratedDataset> MakeHeartDataset(size_t num_rows, Rng* rng) {
  if (num_rows == 0) num_rows = DefaultRowCount("heart");
  size_t n = num_rows;

  std::vector<int32_t> sex(n);
  std::vector<double> age(n), height(n), weight(n), ap_hi(n), ap_lo(n),
      cholesterol(n), gluc(n), smoke(n), alco(n), active(n), cardio(n);
  std::vector<int> true_labels(n);

  for (size_t i = 0; i < n; ++i) {
    sex[i] = rng->Bernoulli(0.35) ? 0 : 1;  // 0 = male (privileged)
    bool male = sex[i] == 0;
    age[i] = RoundedNormal(rng, 53.0, 7.0, 30.0, 65.0);
    bool older = age[i] > 45.0;  // privileged group in the triage context

    height[i] = RoundedNormal(rng, male ? 170.0 : 161.0, 7.0, 140.0, 205.0);
    weight[i] = Clamp(std::round(rng->Normal(male ? 78.0 : 72.0, 13.0)),
                      40.0, 180.0);

    double true_hi = Clamp(
        std::round(rng->Normal(120.0 + 0.5 * (age[i] - 50.0) +
                                   0.3 * (weight[i] - 74.0),
                               14.0)),
        85.0, 220.0);
    double true_lo =
        Clamp(std::round(0.63 * true_hi + rng->Normal(4.0, 6.0)), 55.0, 130.0);

    cholesterol[i] = 1.0 + static_cast<double>(rng->Categorical(
                               {0.74, 0.14 + 0.002 * (age[i] - 50.0), 0.12}));
    gluc[i] = 1.0 + static_cast<double>(rng->Categorical({0.85, 0.07, 0.08}));
    smoke[i] = rng->Bernoulli(male ? 0.22 : 0.03) ? 1.0 : 0.0;
    alco[i] = rng->Bernoulli(male ? 0.11 : 0.03) ? 1.0 : 0.0;
    active[i] = rng->Bernoulli(0.80) ? 1.0 : 0.0;

    // Disease outcome from the *true* measurements.
    double z = 0.09 * (age[i] - 53.0) + 0.075 * (true_hi - 128.0) +
               0.035 * (weight[i] - 74.0) + 0.8 * (cholesterol[i] - 1.0) +
               0.25 * (gluc[i] - 1.0) + 0.3 * smoke[i] - 0.35 * active[i] +
               rng->Normal(0.0, 0.3);
    int disease = rng->Bernoulli(Sigmoid(z)) ? 1 : 0;
    true_labels[i] = disease;

    // Measurement-error corruption of the blood-pressure columns, mirroring
    // the implausible ap_hi/ap_lo values in the real cardio file: decimal
    // unit slips, transposed readings, sign errors. These are genuine
    // errors — the observation is wrong, the outcome is not.
    ap_hi[i] = true_hi;
    ap_lo[i] = true_lo;
    double corruption = rng->Uniform();
    if (corruption < 0.012) {
      ap_hi[i] = true_hi * 10.0;
    } else if (corruption < 0.018) {
      ap_hi[i] = true_lo;
      ap_lo[i] = true_hi;
    } else if (corruption < 0.022) {
      ap_lo[i] = -true_lo;
    }

    // Asymmetric, feature-structured label noise — Section III's heart
    // finding: privileged tuples carry more false-positive noise (0 -> 1),
    // disadvantaged tuples more false-negative noise (1 -> 0). The
    // false-negative noise is concentrated on the clearest disease cases
    // of the disadvantaged group (severe symptoms dismissed), which makes
    // the errors detectable by confident learning and their repair
    // consequential: in the triage context a false negative withholds
    // priority care from a sick person.
    bool privileged_both = male && older;
    bool disadvantaged_any = !male || !older;
    int observed = disease;
    if (disease == 0) {
      double flip = 0.07 + (privileged_both ? (z < -0.5 ? 0.35 : 0.04)
                                            : 0.0);
      if (rng->Bernoulli(flip)) observed = 1;
    } else {
      double flip = 0.07 + (disadvantaged_any ? (z > 0.8 ? 0.30 : 0.05)
                                              : 0.0);
      if (rng->Bernoulli(flip)) observed = 0;
    }
    cardio[i] = observed;
  }

  DataFrame frame;
  FC_RETURN_IF_ERROR(frame.AddColumn(Column::Numeric("age", std::move(age))));
  FC_RETURN_IF_ERROR(
      frame.AddColumn(MakeCategorical("gender", kSexDict, std::move(sex))));
  FC_RETURN_IF_ERROR(
      frame.AddColumn(Column::Numeric("height", std::move(height))));
  FC_RETURN_IF_ERROR(
      frame.AddColumn(Column::Numeric("weight", std::move(weight))));
  FC_RETURN_IF_ERROR(
      frame.AddColumn(Column::Numeric("ap_hi", std::move(ap_hi))));
  FC_RETURN_IF_ERROR(
      frame.AddColumn(Column::Numeric("ap_lo", std::move(ap_lo))));
  FC_RETURN_IF_ERROR(
      frame.AddColumn(Column::Numeric("cholesterol", std::move(cholesterol))));
  FC_RETURN_IF_ERROR(frame.AddColumn(Column::Numeric("gluc", std::move(gluc))));
  FC_RETURN_IF_ERROR(
      frame.AddColumn(Column::Numeric("smoke", std::move(smoke))));
  FC_RETURN_IF_ERROR(frame.AddColumn(Column::Numeric("alco", std::move(alco))));
  FC_RETURN_IF_ERROR(
      frame.AddColumn(Column::Numeric("active", std::move(active))));
  FC_RETURN_IF_ERROR(
      frame.AddColumn(Column::Numeric("cardio", std::move(cardio))));

  GeneratedDataset dataset;
  dataset.frame = std::move(frame);
  dataset.true_labels = std::move(true_labels);
  FC_ASSIGN_OR_RETURN(dataset.spec, DatasetSpecByName("heart"));
  return dataset;
}

}  // namespace fairclean
