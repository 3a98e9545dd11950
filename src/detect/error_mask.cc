#include "detect/error_mask.h"

namespace fairclean {

void ErrorMask::FlagCell(const std::string& column, size_t row) {
  FC_CHECK_LT(row, num_rows_);
  auto [it, inserted] = cell_flags_.try_emplace(column);
  if (inserted) it->second.assign(num_rows_, false);
  it->second[row] = true;
}

void ErrorMask::FlagRow(size_t row) {
  FC_CHECK_LT(row, num_rows_);
  if (row_flags_.empty()) row_flags_.assign(num_rows_, false);
  row_flags_[row] = true;
}

bool ErrorMask::CellFlagged(const std::string& column, size_t row) const {
  FC_CHECK_LT(row, num_rows_);
  auto it = cell_flags_.find(column);
  if (it == cell_flags_.end()) return false;
  return it->second[row];
}

bool ErrorMask::RowFlagged(size_t row) const {
  FC_CHECK_LT(row, num_rows_);
  if (!row_flags_.empty() && row_flags_[row]) return true;
  for (const auto& [column, flags] : cell_flags_) {
    if (flags[row]) return true;
  }
  return false;
}

size_t ErrorMask::FlaggedRowCount() const {
  size_t count = 0;
  for (size_t row = 0; row < num_rows_; ++row) {
    if (RowFlagged(row)) ++count;
  }
  return count;
}

size_t ErrorMask::FlaggedCellCount() const {
  size_t count = 0;
  for (const auto& [column, flags] : cell_flags_) {
    for (bool flag : flags) {
      if (flag) ++count;
    }
  }
  return count;
}

}  // namespace fairclean
