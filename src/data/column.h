#ifndef FAIRCLEAN_DATA_COLUMN_H_
#define FAIRCLEAN_DATA_COLUMN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/status.h"

namespace fairclean {

/// The two column kinds supported by the tabular substrate, mirroring the
/// numeric/categorical distinction that the paper's cleaning methods rely on
/// (e.g. mean imputation applies to numeric columns, dummy imputation to
/// categorical ones).
enum class ColumnType { kNumeric, kCategorical };

/// A single named column of a DataFrame.
///
/// Numeric columns store doubles and represent missing cells as NaN.
/// Categorical columns are dictionary-encoded: each cell holds a code into
/// the dictionary, and missing cells hold Column::kMissingCode. This is the
/// same cell-level missingness model as pandas/NumPy that the paper's
/// detection and imputation methods assume.
class Column {
 public:
  static constexpr int32_t kMissingCode = -1;

  /// Creates a numeric column; NaN entries denote missing values.
  static Column Numeric(std::string name, std::vector<double> values);

  /// Creates a categorical column from codes and a dictionary. Codes must
  /// be kMissingCode or in [0, dictionary.size()).
  static Column Categorical(std::string name, std::vector<int32_t> codes,
                            std::vector<std::string> dictionary);

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }
  ColumnType type() const { return type_; }
  bool is_numeric() const { return type_ == ColumnType::kNumeric; }
  bool is_categorical() const { return type_ == ColumnType::kCategorical; }
  size_t size() const {
    return is_numeric() ? values_.size() : codes_.size();
  }

  /// True if the cell at `row` is missing (NaN / kMissingCode).
  bool IsMissing(size_t row) const;
  /// Number of missing cells.
  size_t MissingCount() const;

  /// Numeric accessors; valid only for numeric columns.
  double Value(size_t row) const {
    FC_CHECK(is_numeric());
    return values_[row];
  }
  void SetValue(size_t row, double value) {
    FC_CHECK(is_numeric());
    values_[row] = value;
  }
  const std::vector<double>& values() const {
    FC_CHECK(is_numeric());
    return values_;
  }

  /// Categorical accessors; valid only for categorical columns.
  int32_t Code(size_t row) const {
    FC_CHECK(is_categorical());
    return codes_[row];
  }
  void SetCode(size_t row, int32_t code);
  const std::vector<int32_t>& codes() const {
    FC_CHECK(is_categorical());
    return codes_;
  }
  const std::vector<std::string>& dictionary() const {
    FC_CHECK(is_categorical());
    return dictionary_;
  }
  /// The dictionary entry for `code`; "<missing>" for kMissingCode.
  const std::string& CategoryName(int32_t code) const;
  /// Looks up the code of `category`, or kMissingCode if absent.
  int32_t CodeOf(const std::string& category) const;
  /// Returns the code of `category`, appending it to the dictionary if new.
  /// Used by dummy imputation to introduce an explicit missing-indicator
  /// category.
  int32_t GetOrAddCategory(const std::string& category);

  /// A new column containing rows at `indices` (with repetition allowed).
  Column Take(const std::vector<size_t>& indices) const;

 private:
  Column() = default;

  std::string name_;
  ColumnType type_ = ColumnType::kNumeric;
  std::vector<double> values_;           // numeric payload
  std::vector<int32_t> codes_;           // categorical payload
  std::vector<std::string> dictionary_;  // categorical dictionary
};

}  // namespace fairclean

#endif  // FAIRCLEAN_DATA_COLUMN_H_
