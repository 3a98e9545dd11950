#ifndef FAIRCLEAN_CORE_IMPACT_H_
#define FAIRCLEAN_CORE_IMPACT_H_

#include <string>
#include <vector>

#include "common/status.h"

namespace fairclean {

/// Direction of the effect of auto-cleaning on a score, relative to the
/// dirty baseline, as classified by a paired t-test.
enum class Impact { kWorse, kInsignificant, kBetter };

const char* ImpactName(Impact impact);

/// Classifies the impact of cleaning by comparing per-repeat scores of the
/// repaired configuration against the dirty baseline with a two-sided
/// paired t-test at level `alpha` (callers pass a Bonferroni-adjusted
/// alpha, as the paper does). `higher_is_better` is true for accuracy and
/// false for unfairness (|fairness gap|).
Result<Impact> ClassifyImpact(const std::vector<double>& dirty_scores,
                              const std::vector<double>& repaired_scores,
                              double alpha, bool higher_is_better);

/// The paper's 3x3 impact table: fairness impact (rows: worse /
/// insignificant / better) crossed with accuracy impact (columns), with
/// counts of configurations per cell.
class ImpactTable {
 public:
  ImpactTable() = default;

  void Add(Impact fairness, Impact accuracy);

  int64_t cell(Impact fairness, Impact accuracy) const;
  int64_t RowTotal(Impact fairness) const;
  int64_t ColumnTotal(Impact accuracy) const;
  int64_t Total() const;

  /// Renders the table in the paper's layout (percentages with counts,
  /// row/column totals), titled e.g. "Impact of auto-cleaning missing
  /// values for single-attribute groups, PP".
  std::string Format(const std::string& title) const;

  /// Accumulates another table cell-wise.
  ImpactTable& operator+=(const ImpactTable& other);

 private:
  static size_t Index(Impact impact);

  int64_t cells_[3][3] = {{0, 0, 0}, {0, 0, 0}, {0, 0, 0}};
};

}  // namespace fairclean

#endif  // FAIRCLEAN_CORE_IMPACT_H_
