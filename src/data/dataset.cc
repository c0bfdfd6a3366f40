#include "data/dataset.h"

#include <algorithm>
#include <cmath>

#include "data/csv.h"

namespace popp {

Dataset::Dataset(Schema schema) : schema_(std::move(schema)) {
  columns_.resize(schema_.NumAttributes());
}

Dataset::Dataset(std::vector<std::string> attribute_names,
                 std::vector<std::string> class_names)
    : Dataset(Schema(std::move(attribute_names), std::move(class_names))) {}

Dataset::Dataset(Schema schema, std::vector<std::vector<AttrValue>> columns,
                 std::vector<ClassId> labels)
    : schema_(std::move(schema)),
      columns_(std::move(columns)),
      labels_(std::move(labels)) {
  POPP_CHECK_MSG(columns_.size() == schema_.NumAttributes(),
                 "Dataset: got " << columns_.size() << " columns, expected "
                                 << schema_.NumAttributes());
  for (size_t a = 0; a < columns_.size(); ++a) {
    POPP_CHECK_MSG(columns_[a].size() == labels_.size(),
                   "Dataset: column " << a << " has " << columns_[a].size()
                                      << " rows, expected " << labels_.size());
  }
  for (ClassId label : labels_) {
    POPP_CHECK_MSG(
        label >= 0 && static_cast<size_t>(label) < schema_.NumClasses(),
        "Dataset: bad class id " << label);
  }
}

void Dataset::Reserve(size_t rows) {
  for (auto& col : columns_) col.reserve(rows);
  labels_.reserve(rows);
}

void Dataset::AddRow(const std::vector<AttrValue>& values, ClassId label) {
  POPP_CHECK_MSG(values.size() == columns_.size(),
                 "AddRow: got " << values.size() << " values, expected "
                                << columns_.size());
  POPP_CHECK_MSG(
      label >= 0 && static_cast<size_t>(label) < schema_.NumClasses(),
      "AddRow: bad class id " << label);
  for (size_t a = 0; a < values.size(); ++a) {
    columns_[a].push_back(values[a]);
  }
  labels_.push_back(label);
}

const std::vector<AttrValue>& Dataset::Column(size_t attr) const {
  POPP_CHECK_MSG(attr < columns_.size(), "bad attribute index " << attr);
  return columns_[attr];
}

std::vector<AttrValue>& Dataset::MutableColumn(size_t attr) {
  POPP_CHECK_MSG(attr < columns_.size(), "bad attribute index " << attr);
  return columns_[attr];
}

std::vector<AttrValue> Dataset::Row(size_t row) const {
  POPP_CHECK_MSG(row < labels_.size(), "bad row index " << row);
  std::vector<AttrValue> out(columns_.size());
  for (size_t a = 0; a < columns_.size(); ++a) {
    out[a] = columns_[a][row];
  }
  return out;
}

std::vector<ValueLabel> Dataset::SortedProjection(size_t attr) const {
  const auto& col = Column(attr);
  std::vector<ValueLabel> out(col.size());
  for (size_t r = 0; r < col.size(); ++r) {
    out[r] = ValueLabel{col[r], labels_[r]};
  }
  std::stable_sort(out.begin(), out.end(), ValueLabelLess());
  return out;
}

std::vector<AttrValue> Dataset::ActiveDomain(size_t attr) const {
  std::vector<AttrValue> vals = Column(attr);
  std::sort(vals.begin(), vals.end());
  vals.erase(std::unique(vals.begin(), vals.end()), vals.end());
  return vals;
}

std::vector<size_t> Dataset::ClassHistogram() const {
  std::vector<size_t> hist(schema_.NumClasses(), 0);
  for (ClassId c : labels_) {
    hist[static_cast<size_t>(c)]++;
  }
  return hist;
}

Dataset Dataset::Select(const std::vector<size_t>& row_indices) const {
  Dataset out(schema_);
  out.Reserve(row_indices.size());
  std::vector<AttrValue> tmp(columns_.size());
  for (size_t r : row_indices) {
    POPP_CHECK_MSG(r < labels_.size(), "Select: bad row index " << r);
    for (size_t a = 0; a < columns_.size(); ++a) tmp[a] = columns_[a][r];
    out.AddRow(tmp, labels_[r]);
  }
  return out;
}

Status CheckFiniteValues(const Dataset& data, size_t rows_before) {
  // The all-finite scan is branch-free so it vectorizes; only a column that
  // fails it is searched for its first offending row.
  size_t first_row = data.NumRows();
  size_t first_attr = 0;
  for (size_t a = 0; a < data.NumAttributes(); ++a) {
    const std::vector<AttrValue>& col = data.Column(a);
    bool finite = true;
    for (const AttrValue x : col) finite &= std::isfinite(x);
    if (finite) continue;
    for (size_t r = 0; r < first_row; ++r) {
      if (!std::isfinite(col[r])) {
        first_row = r;
        first_attr = a;
        break;
      }
    }
  }
  if (first_row == data.NumRows()) return Status::Ok();
  return Status::InvalidArgument(
      "non-finite value at row " + std::to_string(rows_before + first_row + 1) +
      ": attribute '" + data.schema().AttributeName(first_attr) + "' = " +
      FormatCsvCell(data.Value(first_row, first_attr)) +
      " (only finite numbers can be encoded)");
}

}  // namespace popp
