#include "data/schema.h"

namespace popp {

Schema::Schema(std::vector<std::string> attribute_names,
               std::vector<std::string> class_names)
    : attribute_names_(std::move(attribute_names)),
      class_names_(std::move(class_names)) {}

const std::string& Schema::AttributeName(size_t attr) const {
  POPP_CHECK_MSG(attr < attribute_names_.size(),
                 "attribute index " << attr << " out of range "
                                    << attribute_names_.size());
  return attribute_names_[attr];
}

const std::string& Schema::ClassName(ClassId label) const {
  POPP_CHECK_MSG(label >= 0 &&
                     static_cast<size_t>(label) < class_names_.size(),
                 "class id " << label << " out of range "
                             << class_names_.size());
  return class_names_[static_cast<size_t>(label)];
}

Result<size_t> Schema::AttributeIndex(const std::string& name) const {
  for (size_t i = 0; i < attribute_names_.size(); ++i) {
    if (attribute_names_[i] == name) return i;
  }
  return Status::NotFound("no attribute named '" + name + "'");
}

Result<ClassId> Schema::ClassIdOf(const std::string& name) const {
  for (size_t i = 0; i < class_names_.size(); ++i) {
    if (class_names_[i] == name) return static_cast<ClassId>(i);
  }
  return Status::NotFound("no class named '" + name + "'");
}

ClassId Schema::GetOrAddClass(std::string_view name) {
  for (size_t i = 0; i < class_names_.size(); ++i) {
    if (class_names_[i] == name) return static_cast<ClassId>(i);
  }
  class_names_.emplace_back(name);
  return static_cast<ClassId>(class_names_.size() - 1);
}

}  // namespace popp
