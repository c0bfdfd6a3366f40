#ifndef POPP_DATA_DATASET_H_
#define POPP_DATA_DATASET_H_

#include <string>
#include <vector>

#include "data/schema.h"
#include "data/value.h"

/// \file
/// The training relation D of the paper (Section 3.1): m numeric
/// attributes plus a categorical class label, stored column-major.

namespace popp {

/// A training data set (relation instance) with numeric attributes and a
/// class label per tuple. Column-major storage keeps per-attribute scans
/// (projections, active domains, transformations) cache-friendly.
///
/// Datasets are value types: copyable (an explicit deep copy is what a
/// custodian does before transforming) and movable.
class Dataset {
 public:
  Dataset() = default;

  /// Creates an empty dataset with the given schema.
  explicit Dataset(Schema schema);

  /// Convenience: schema from names.
  Dataset(std::vector<std::string> attribute_names,
          std::vector<std::string> class_names);

  /// Adopts fully built columns (write-once construction: encoders fill
  /// fresh columns and hand them over without a copy-then-overwrite pass).
  /// `columns.size()` must equal the schema's attribute count, every column
  /// must have labels.size() rows, and every label must be valid.
  Dataset(Schema schema, std::vector<std::vector<AttrValue>> columns,
          std::vector<ClassId> labels);

  const Schema& schema() const { return schema_; }
  Schema& mutable_schema() { return schema_; }

  size_t NumRows() const { return labels_.size(); }
  size_t NumAttributes() const { return columns_.size(); }
  size_t NumClasses() const { return schema_.NumClasses(); }

  /// Reserves storage for `rows` tuples in every column.
  void Reserve(size_t rows);

  /// Appends one tuple; `values` must have exactly NumAttributes entries
  /// and `label` must be a valid class id of the schema.
  void AddRow(const std::vector<AttrValue>& values, ClassId label);

  AttrValue Value(size_t row, size_t attr) const {
    POPP_DCHECK(attr < columns_.size());
    POPP_DCHECK(row < labels_.size());
    return columns_[attr][row];
  }
  void SetValue(size_t row, size_t attr, AttrValue v) {
    POPP_DCHECK(attr < columns_.size());
    POPP_DCHECK(row < labels_.size());
    columns_[attr][row] = v;
  }

  ClassId Label(size_t row) const {
    POPP_DCHECK(row < labels_.size());
    return labels_[row];
  }

  /// Read-only access to a whole column.
  const std::vector<AttrValue>& Column(size_t attr) const;
  /// Mutable access to a whole column (used by in-place transforms).
  std::vector<AttrValue>& MutableColumn(size_t attr);

  const std::vector<ClassId>& labels() const { return labels_; }

  /// Materializes one full tuple (row) as a vector of attribute values.
  std::vector<AttrValue> Row(size_t row) const;

  /// The A-projected tuples of attribute `attr`, sorted by value with a
  /// stable tie order (Definition 6's "canonical order").
  std::vector<ValueLabel> SortedProjection(size_t attr) const;

  /// The active domain delta(A): sorted distinct values of `attr` in D.
  std::vector<AttrValue> ActiveDomain(size_t attr) const;

  /// Per-class tuple counts over the whole relation.
  std::vector<size_t> ClassHistogram() const;

  /// Returns the subset of rows selected by `row_indices`, same schema.
  Dataset Select(const std::vector<size_t>& row_indices) const;

  /// True if both datasets have identical schema, labels and values.
  friend bool operator==(const Dataset&, const Dataset&) = default;

 private:
  Schema schema_;
  std::vector<std::vector<AttrValue>> columns_;  // columns_[attr][row]
  std::vector<ClassId> labels_;                  // labels_[row]
};

/// Refuses non-finite attribute values (inf, -inf, nan), which no plan fit
/// or encode can place. Returns kInvalidArgument naming the first offending
/// row (1-based, numbered from `rows_before` + 1) and its attribute; Ok if
/// every value is finite. Every path that feeds a dataset into a fit or an
/// encode calls it; the readers themselves stay format-faithful.
Status CheckFiniteValues(const Dataset& data, size_t rows_before = 0);

}  // namespace popp

#endif  // POPP_DATA_DATASET_H_
