#include "data/column.h"

#include <cmath>

namespace fairclean {

namespace {
const std::string kMissingName = "<missing>";
}  // namespace

Column Column::Numeric(std::string name, std::vector<double> values) {
  Column col;
  col.name_ = std::move(name);
  col.type_ = ColumnType::kNumeric;
  col.values_ = std::move(values);
  return col;
}

Column Column::Categorical(std::string name, std::vector<int32_t> codes,
                           std::vector<std::string> dictionary) {
  Column col;
  col.name_ = std::move(name);
  col.type_ = ColumnType::kCategorical;
  for (int32_t code : codes) {
    FC_CHECK(code == kMissingCode ||
             (code >= 0 && static_cast<size_t>(code) < dictionary.size()));
  }
  col.codes_ = std::move(codes);
  col.dictionary_ = std::move(dictionary);
  return col;
}

bool Column::IsMissing(size_t row) const {
  if (is_numeric()) return std::isnan(values_[row]);
  return codes_[row] == kMissingCode;
}

size_t Column::MissingCount() const {
  size_t count = 0;
  for (size_t row = 0; row < size(); ++row) {
    if (IsMissing(row)) ++count;
  }
  return count;
}

void Column::SetCode(size_t row, int32_t code) {
  FC_CHECK(is_categorical());
  FC_CHECK(code == kMissingCode ||
           (code >= 0 && static_cast<size_t>(code) < dictionary_.size()));
  codes_[row] = code;
}

const std::string& Column::CategoryName(int32_t code) const {
  FC_CHECK(is_categorical());
  if (code == kMissingCode) return kMissingName;
  FC_CHECK(code >= 0 && static_cast<size_t>(code) < dictionary_.size());
  return dictionary_[static_cast<size_t>(code)];
}

int32_t Column::CodeOf(const std::string& category) const {
  FC_CHECK(is_categorical());
  for (size_t i = 0; i < dictionary_.size(); ++i) {
    if (dictionary_[i] == category) return static_cast<int32_t>(i);
  }
  return kMissingCode;
}

int32_t Column::GetOrAddCategory(const std::string& category) {
  FC_CHECK(is_categorical());
  int32_t existing = CodeOf(category);
  if (existing != kMissingCode) return existing;
  dictionary_.push_back(category);
  return static_cast<int32_t>(dictionary_.size() - 1);
}

Column Column::Take(const std::vector<size_t>& indices) const {
  Column out;
  out.name_ = name_;
  out.type_ = type_;
  if (is_numeric()) {
    out.values_.reserve(indices.size());
    for (size_t index : indices) {
      FC_CHECK_LT(index, values_.size());
      out.values_.push_back(values_[index]);
    }
  } else {
    out.dictionary_ = dictionary_;
    out.codes_.reserve(indices.size());
    for (size_t index : indices) {
      FC_CHECK_LT(index, codes_.size());
      out.codes_.push_back(codes_[index]);
    }
  }
  return out;
}

}  // namespace fairclean
