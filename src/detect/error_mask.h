#ifndef FAIRCLEAN_DETECT_ERROR_MASK_H_
#define FAIRCLEAN_DETECT_ERROR_MASK_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/check.h"

namespace fairclean {

/// The output of an error-detection strategy.
///
/// Univariate detectors (missing values, outliers-sd, outliers-iqr) flag
/// individual cells, recorded per column; tuple-level detectors
/// (outliers-if, mislabels) flag whole rows. RowFlagged() gives the unified
/// row-level view used in the RQ1 disparity analysis ("is this tuple
/// considered erroneous").
class ErrorMask {
 public:
  explicit ErrorMask(size_t num_rows) : num_rows_(num_rows) {}

  size_t num_rows() const { return num_rows_; }

  /// Marks the cell (row, column) erroneous.
  void FlagCell(const std::string& column, size_t row);
  /// Marks the whole row erroneous.
  void FlagRow(size_t row);

  /// True if the detector flagged this cell.
  bool CellFlagged(const std::string& column, size_t row) const;
  /// True if the row was flagged directly or via any of its cells.
  bool RowFlagged(size_t row) const;

  /// Number of rows with any flag.
  size_t FlaggedRowCount() const;
  /// Number of flagged cells across all columns.
  size_t FlaggedCellCount() const;

 private:
  size_t num_rows_;
  std::vector<bool> row_flags_;
  std::unordered_map<std::string, std::vector<bool>> cell_flags_;
};

}  // namespace fairclean

#endif  // FAIRCLEAN_DETECT_ERROR_MASK_H_
