#ifndef POPP_DATA_SCHEMA_H_
#define POPP_DATA_SCHEMA_H_

#include <string>
#include <string_view>
#include <vector>

#include "data/value.h"
#include "util/status.h"

/// \file
/// Relation schema: named numeric attributes plus a categorical class
/// attribute with a dictionary of class-label names.

namespace popp {

/// Immutable-ish description of a training relation's columns.
///
/// The schema owns the attribute names (A_1..A_m) and the class-label
/// dictionary (name <-> dense ClassId). Datasets hold a Schema by value.
class Schema {
 public:
  Schema() = default;

  /// Builds a schema from attribute names and class-label names.
  /// Class ids are assigned in the order given (0-based).
  Schema(std::vector<std::string> attribute_names,
         std::vector<std::string> class_names);

  size_t NumAttributes() const { return attribute_names_.size(); }
  size_t NumClasses() const { return class_names_.size(); }

  const std::string& AttributeName(size_t attr) const;
  const std::string& ClassName(ClassId label) const;

  /// Returns the index of the named attribute, or kNotFound status.
  Result<size_t> AttributeIndex(const std::string& name) const;

  /// Returns the id of the named class, or kNotFound status.
  Result<ClassId> ClassIdOf(const std::string& name) const;

  /// Adds a class label if new; returns its id either way. Takes a view so
  /// the CSV reader can look up a label without copying it per row.
  ClassId GetOrAddClass(std::string_view name);

  const std::vector<std::string>& attribute_names() const {
    return attribute_names_;
  }
  const std::vector<std::string>& class_names() const { return class_names_; }

  friend bool operator==(const Schema&, const Schema&) = default;

 private:
  std::vector<std::string> attribute_names_;
  std::vector<std::string> class_names_;
};

}  // namespace popp

#endif  // POPP_DATA_SCHEMA_H_
