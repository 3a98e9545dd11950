#ifndef FAIRCLEAN_DATASETS_GENERATOR_H_
#define FAIRCLEAN_DATASETS_GENERATOR_H_

#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "datasets/spec.h"

namespace fairclean {

/// Synthetic stand-ins for the paper's five benchmark datasets.
///
/// The real adult/folk/credit/german/heart files cannot be redistributed or
/// downloaded in this environment, so each generator reproduces the
/// dataset's schema and — more importantly — the error *mechanisms* the
/// paper's findings depend on (see DESIGN.md Section 5): group-correlated
/// missingness, heavy-tailed numeric columns whose extremes trip outlier
/// detectors, measurement-error corruption, and asymmetric label noise
/// where deserving members of disadvantaged groups are more likely recorded
/// as negative. All generators are deterministic given the rng.

/// Census income data modeled on UCI adult: sex/race sensitive attributes,
/// ~24% positive rate, missing workclass/occupation concentrated in the
/// disadvantaged groups, heavy-tailed capital_gain, moderate label noise.
Result<GeneratedDataset> MakeAdultDataset(size_t num_rows, Rng* rng);

/// Census data modeled on folktables ACSIncome (California): sex/race,
/// structural N/A missingness (occupation/class-of-worker missing for
/// minors), mild disparities, light label noise.
Result<GeneratedDataset> MakeFolkDataset(size_t num_rows, Rng* rng);

/// Finance data modeled on GiveMeSomeCredit: age sensitive attribute, no
/// missing values, lognormal utilization/debt columns with sentinel-value
/// data errors, high positive (creditworthy) rate.
Result<GeneratedDataset> MakeCreditDataset(size_t num_rows, Rng* rng);

/// Finance data modeled on German credit: age/sex sensitive attributes
/// (sex derived from a personal_status-style column, as in the paper),
/// small scale, missing values in savings/employment.
Result<GeneratedDataset> MakeGermanDataset(size_t num_rows, Rng* rng);

/// Healthcare data modeled on the cardiovascular-disease dataset: sex/age
/// sensitive attributes, no missing values at all (paper footnote 8),
/// blood-pressure unit/transposition errors, asymmetric label noise (more
/// false negatives for the disadvantaged group).
Result<GeneratedDataset> MakeHeartDataset(size_t num_rows, Rng* rng);

/// Generates a dataset by its paper name with `num_rows` rows (0 = the
/// dataset's scaled default size).
Result<GeneratedDataset> MakeDataset(const std::string& name, size_t num_rows,
                                     Rng* rng);

/// The declarative spec of a paper dataset (label, hidden columns, error
/// types, privileged-group predicates), without generating any rows. Every
/// generator attaches exactly this spec to its frame. NotFound for an
/// unknown name.
Result<DatasetSpec> DatasetSpecByName(const std::string& name);

/// All dataset names in the paper's Table I order.
std::vector<std::string> AllDatasetNames();

/// The scaled-down default row count used when num_rows = 0.
size_t DefaultRowCount(const std::string& name);

}  // namespace fairclean

#endif  // FAIRCLEAN_DATASETS_GENERATOR_H_
