#include "data/dataframe.h"

#include "common/check.h"
#include "common/strings.h"

namespace fairclean {

Status DataFrame::AddColumn(Column column) {
  if (index_.count(column.name()) > 0) {
    return Status::AlreadyExists("column already exists: " + column.name());
  }
  if (!columns_.empty() && column.size() != num_rows()) {
    return Status::InvalidArgument(StrFormat(
        "column '%s' has %zu rows, frame has %zu", column.name().c_str(),
        column.size(), num_rows()));
  }
  index_.emplace(column.name(), columns_.size());
  columns_.push_back(std::move(column));
  return Status::OK();
}

bool DataFrame::HasColumn(const std::string& name) const {
  return index_.count(name) > 0;
}

const Column& DataFrame::column(const std::string& name) const {
  auto it = index_.find(name);
  FC_CHECK_MSG(it != index_.end(), name.c_str());
  return columns_[it->second];
}

Column& DataFrame::mutable_column(const std::string& name) {
  auto it = index_.find(name);
  FC_CHECK_MSG(it != index_.end(), name.c_str());
  return columns_[it->second];
}

std::vector<std::string> DataFrame::column_names() const {
  std::vector<std::string> names;
  names.reserve(columns_.size());
  for (const Column& column : columns_) names.push_back(column.name());
  return names;
}

DataFrame DataFrame::Take(const std::vector<size_t>& indices) const {
  DataFrame out;
  for (const Column& column : columns_) {
    Status st = out.AddColumn(column.Take(indices));
    FC_CHECK(st.ok());
  }
  return out;
}

DataFrame DataFrame::FilterRows(const std::vector<bool>& keep) const {
  FC_CHECK_EQ(keep.size(), num_rows());
  std::vector<size_t> indices;
  for (size_t row = 0; row < keep.size(); ++row) {
    if (keep[row]) indices.push_back(row);
  }
  return Take(indices);
}

std::vector<size_t> DataFrame::RowsWithMissing() const {
  std::vector<size_t> rows;
  for (size_t row = 0; row < num_rows(); ++row) {
    for (const Column& column : columns_) {
      if (column.IsMissing(row)) {
        rows.push_back(row);
        break;
      }
    }
  }
  return rows;
}

}  // namespace fairclean
