#ifndef FAIRCLEAN_DATA_DATAFRAME_H_
#define FAIRCLEAN_DATA_DATAFRAME_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "data/column.h"

namespace fairclean {

/// A named collection of equal-length columns — the in-memory table that
/// flows through detection, repair, encoding and training.
///
/// Rows are addressed positionally; all row-subset operations (Take,
/// FilterRows) produce new frames, so the dirty and repaired versions of a
/// dataset in the experiment protocol are independent copies.
class DataFrame {
 public:
  DataFrame() = default;

  /// Appends a column. Fails if a column of the same name exists or the
  /// length disagrees with existing columns.
  Status AddColumn(Column column);

  size_t num_rows() const {
    return columns_.empty() ? 0 : columns_[0].size();
  }
  size_t num_columns() const { return columns_.size(); }
  bool HasColumn(const std::string& name) const;

  const Column& column(size_t index) const { return columns_[index]; }
  Column& mutable_column(size_t index) { return columns_[index]; }

  /// The named column; dies if absent (use HasColumn to probe).
  const Column& column(const std::string& name) const;
  Column& mutable_column(const std::string& name);

  /// Names of all columns in order.
  std::vector<std::string> column_names() const;

  /// A new frame containing rows at `indices` (repetition allowed).
  DataFrame Take(const std::vector<size_t>& indices) const;

  /// A new frame containing rows where keep[row] is true.
  DataFrame FilterRows(const std::vector<bool>& keep) const;

  /// Row indices with at least one missing cell in any column.
  std::vector<size_t> RowsWithMissing() const;

 private:
  std::vector<Column> columns_;
  std::unordered_map<std::string, size_t> index_;
};

}  // namespace fairclean

#endif  // FAIRCLEAN_DATA_DATAFRAME_H_
