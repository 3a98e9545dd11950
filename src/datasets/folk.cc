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
const std::vector<std::string> kRaceDict = {"white", "black", "asian",
                                            "other"};
const std::vector<std::string> kOccpDict = {
    "management", "business",  "computer", "engineering", "healthcare",
    "education",  "sales",     "office",   "construction", "production"};
const std::vector<std::string> kCowDict = {
    "private-profit", "private-nonprofit", "local-gov", "state-gov",
    "federal-gov",    "self-employed",     "family-business", "unemployed"};
const std::vector<std::string> kMarDict = {"married", "widowed", "divorced",
                                           "separated", "never-married"};

}  // namespace

Result<GeneratedDataset> MakeFolkDataset(size_t num_rows, Rng* rng) {
  if (num_rows == 0) num_rows = DefaultRowCount("folk");
  size_t n = num_rows;

  std::vector<int32_t> sex(n), race(n), occp(n), cow(n), mar(n);
  std::vector<double> agep(n), schl(n), wkhp(n), label(n);
  std::vector<int> true_labels(n);

  for (size_t i = 0; i < n; ++i) {
    sex[i] = rng->Bernoulli(0.5) ? 0 : 1;  // 0 = male (privileged)
    race[i] =
        static_cast<int32_t>(rng->Categorical({0.60, 0.06, 0.16, 0.18}));
    bool male = sex[i] == 0;
    bool white = race[i] == 0;
    double adv = 0.5 * (male ? 1.0 : 0.0) + 0.5 * (white ? 1.0 : 0.0);

    agep[i] = Clamp(std::round(16.0 + 78.0 * internal_datasets::Beta(
                                           rng, 1.4, 1.9)),
                    16.0, 94.0);
    schl[i] = RoundedNormal(rng, 16.0 + 1.2 * adv, 4.0, 1.0, 24.0);
    bool minor = agep[i] < 18.0;

    if (minor) {
      // Structural N/A: minors have no occupation / class of worker. This
      // is the folk datasheet semantics the paper's Section VI deep dive
      // highlights — dummy imputation lets a model learn the N/A category.
      occp[i] = Column::kMissingCode;
      cow[i] = Column::kMissingCode;
      wkhp[i] = 0.0;
    } else {
      bool professional = schl[i] >= 18.0;
      occp[i] = static_cast<int32_t>(
          professional
              ? rng->Categorical(
                    {0.18, 0.14, 0.14, 0.10, 0.14, 0.12, 0.08, 0.06, 0.02,
                     0.02})
              : rng->Categorical(
                    {0.04, 0.04, 0.03, 0.03, 0.06, 0.05, 0.15, 0.20, 0.18,
                     0.22}));
      cow[i] = static_cast<int32_t>(rng->Categorical(
          {0.58, 0.07, 0.08, 0.05, 0.03, 0.09, 0.02, 0.08}));
      wkhp[i] = RoundedNormal(rng, 36.0 + 3.0 * (male ? 1.0 : 0.0), 12.0,
                              1.0, 99.0);
    }

    double married_p = Clamp(0.012 * (agep[i] - 18.0), 0.0, 0.62);
    if (rng->Bernoulli(married_p)) {
      mar[i] = 0;
    } else {
      mar[i] =
          1 + static_cast<int32_t>(rng->Categorical({0.08, 0.22, 0.05, 0.65}));
    }

    // Label: total income above 50k (replicating the adult task).
    double z = -1.4 + 0.23 * (schl[i] - 16.0) + 0.045 * (wkhp[i] - 36.0) +
               0.045 * (agep[i] - 42.0) -
               0.0011 * (agep[i] - 42.0) * (agep[i] - 42.0) +
               0.3 * (male ? 1.0 : 0.0) + 0.25 * (white ? 1.0 : 0.0) +
               rng->Normal(0.0, 0.5);
    if (minor) z -= 4.0;
    int true_label = rng->Bernoulli(Sigmoid(z)) ? 1 : 0;
    true_labels[i] = true_label;

    // Light, mildly asymmetric label noise.
    int observed = true_label;
    if (true_label == 1) {
      if (rng->Bernoulli(0.03 + 0.02 * (1.0 - adv))) observed = 0;
    } else {
      if (rng->Bernoulli(0.025)) observed = 1;
    }
    label[i] = observed;

    // Group-correlated missingness on top of the structural N/As. folk's
    // occupation channel runs the other way around than adult's: the
    // *privileged* group's successes go unrecorded (high earners skip the
    // occupation question), so the dirty protocol drops privileged
    // positives and the repaired model regains them — recall of the
    // privileged group rises and the single-attribute gaps widen, the
    // paper's "cleaning worsens EO" pattern. The class-of-worker channel
    // keeps the intersectional story (disadvantaged successes unrecorded).
    // Tuple-level missing rates remain higher for the disadvantaged group
    // (RQ1) because COW/WKHP missingness outweighs the OCCP channel.
    int dis_axes = (male ? 0 : 1) + (white ? 0 : 1);
    double p_occp_missing =
        dis_axes == 0 ? (observed == 1 ? 0.34 : 0.04) : 0.04;
    double p_cow_missing =
        dis_axes == 2 ? (observed == 1 ? 0.60 : 0.06)
                      : (dis_axes == 1 ? 0.15 : 0.03);
    if (!minor && occp[i] != Column::kMissingCode &&
        rng->Bernoulli(p_occp_missing)) {
      occp[i] = Column::kMissingCode;
    }
    if (!minor && cow[i] != Column::kMissingCode &&
        rng->Bernoulli(p_cow_missing)) {
      cow[i] = Column::kMissingCode;
    }
    double p_wkhp_missing =
        (wkhp[i] > 45.0 ? 0.12 : 0.02) + 0.04 * dis_axes;
    if (rng->Bernoulli(p_wkhp_missing)) {
      wkhp[i] = std::nan("");
    }
  }

  DataFrame frame;
  FC_RETURN_IF_ERROR(frame.AddColumn(Column::Numeric("AGEP", std::move(agep))));
  FC_RETURN_IF_ERROR(frame.AddColumn(Column::Numeric("SCHL", std::move(schl))));
  FC_RETURN_IF_ERROR(
      frame.AddColumn(MakeCategorical("OCCP", kOccpDict, std::move(occp))));
  FC_RETURN_IF_ERROR(
      frame.AddColumn(MakeCategorical("COW", kCowDict, std::move(cow))));
  FC_RETURN_IF_ERROR(frame.AddColumn(Column::Numeric("WKHP", std::move(wkhp))));
  FC_RETURN_IF_ERROR(
      frame.AddColumn(MakeCategorical("MAR", kMarDict, std::move(mar))));
  FC_RETURN_IF_ERROR(
      frame.AddColumn(MakeCategorical("SEX", kSexDict, std::move(sex))));
  FC_RETURN_IF_ERROR(
      frame.AddColumn(MakeCategorical("RAC1P", kRaceDict, std::move(race))));
  FC_RETURN_IF_ERROR(
      frame.AddColumn(Column::Numeric("PINCP_50K", std::move(label))));

  GeneratedDataset dataset;
  dataset.frame = std::move(frame);
  dataset.true_labels = std::move(true_labels);
  FC_ASSIGN_OR_RETURN(dataset.spec, DatasetSpecByName("folk"));
  return dataset;
}

}  // namespace fairclean
