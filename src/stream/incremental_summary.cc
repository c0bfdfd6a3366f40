#include "stream/incremental_summary.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "util/status.h"

namespace popp::stream {

IncrementalSummary::IncrementalSummary(size_t num_attributes)
    : attrs_(num_attributes) {
  POPP_CHECK_MSG(num_attributes > 0, "IncrementalSummary needs attributes");
}

uint32_t* IncrementalSummary::KeyRow(AttrCounts& attr, uint64_t key) {
  const size_t slot = attr.index.Insert(key);
  if (attr.counts.size() < attr.index.size() * stride_) {
    attr.counts.resize(attr.index.size() * stride_, 0);
  }
  return attr.counts.data() + slot * stride_;
}

uint32_t* IncrementalSummary::ValueRow(AttrCounts& attr, AttrValue x) {
  if (x == 0 && std::signbit(x)) [[unlikely]] attr.negative_zero = true;
  return KeyRow(attr, std::bit_cast<uint64_t>(x == 0 ? 0.0 : x));
}

void IncrementalSummary::Widen(size_t num_classes) {
  if (num_classes <= stride_) return;
  const size_t stride = std::max(num_classes, 2 * stride_);
  for (AttrCounts& attr : attrs_) {
    std::vector<uint32_t> wider(attr.index.size() * stride, 0);
    for (size_t slot = 0; slot < attr.index.size(); ++slot) {
      std::copy_n(attr.counts.data() + slot * stride_, stride_,
                  wider.data() + slot * stride);
    }
    attr.counts = std::move(wider);
  }
  stride_ = stride;
}

std::vector<std::pair<AttrValue, const uint32_t*>>
IncrementalSummary::SortedValues(size_t attr) const {
  const AttrCounts& counts = attrs_[attr];
  const std::vector<uint64_t>& keys = counts.index.keys();
  std::vector<std::pair<AttrValue, const uint32_t*>> values;
  values.reserve(keys.size());
  for (size_t slot = 0; slot < keys.size(); ++slot) {
    const bool negative_zero = keys[slot] == 0 && counts.negative_zero;
    values.emplace_back(
        negative_zero ? -0.0 : std::bit_cast<AttrValue>(keys[slot]),
        counts.counts.data() + slot * stride_);
  }
  std::sort(values.begin(), values.end(), [](const auto& a, const auto& b) {
    return TotalOrderKey(std::bit_cast<uint64_t>(a.first)) <
           TotalOrderKey(std::bit_cast<uint64_t>(b.first));
  });
  return values;
}

void IncrementalSummary::Absorb(const Dataset& chunk) {
  POPP_CHECK_MSG(chunk.NumAttributes() == attrs_.size(),
                 "Absorb: attribute count mismatch");
  num_classes_ = std::max(num_classes_, chunk.NumClasses());
  Widen(num_classes_);
  const std::vector<ClassId>& labels = chunk.labels();
  for (const ClassId label : labels) {
    POPP_CHECK_MSG(label >= 0 && static_cast<size_t>(label) < num_classes_,
                   "Absorb: bad class id " << label);
  }
  for (size_t a = 0; a < attrs_.size(); ++a) {
    AttrCounts& attr = attrs_[a];
    const auto& col = chunk.Column(a);
    for (size_t r = 0; r < col.size(); ++r) {
      ValueRow(attr, col[r])[labels[r]]++;
    }
  }
  num_rows_ += chunk.NumRows();
}

void IncrementalSummary::Merge(const IncrementalSummary& other) {
  POPP_CHECK_MSG(other.attrs_.size() == attrs_.size(),
                 "Merge: attribute count mismatch");
  num_classes_ = std::max(num_classes_, other.num_classes_);
  Widen(num_classes_);
  for (size_t a = 0; a < attrs_.size(); ++a) {
    const AttrCounts& from = other.attrs_[a];
    AttrCounts& into = attrs_[a];
    into.negative_zero = into.negative_zero || from.negative_zero;
    for (size_t slot = 0; slot < from.index.size(); ++slot) {
      uint32_t* row = KeyRow(into, from.index.keys()[slot]);
      const uint32_t* add = from.counts.data() + slot * other.stride_;
      for (size_t c = 0; c < other.num_classes_; ++c) row[c] += add[c];
    }
  }
  num_rows_ += other.num_rows_;
}

uint32_t* IncrementalSummary::AddValue(size_t attr, AttrValue value) {
  Widen(num_classes_);
  AttrCounts& counts = attrs_[attr];
  const size_t distinct = counts.index.size();
  uint32_t* row = ValueRow(counts, value);
  return counts.index.size() > distinct ? row : nullptr;
}

AttributeSummary IncrementalSummary::Summarize(size_t attr) const {
  POPP_CHECK_MSG(attr < attrs_.size(), "bad attribute " << attr);
  const auto sorted = SortedValues(attr);
  std::vector<AttrValue> values;
  std::vector<uint32_t> class_counts;
  values.reserve(sorted.size());
  class_counts.reserve(sorted.size() * num_classes_);
  for (const auto& [value, counts] : sorted) {
    values.push_back(value);
    class_counts.insert(class_counts.end(), counts, counts + num_classes_);
  }
  return AttributeSummary::FromDistinctCounts(
      std::move(values), std::move(class_counts), num_classes_);
}

std::vector<AttributeSummary> IncrementalSummary::SummarizeAll() const {
  std::vector<AttributeSummary> out;
  out.reserve(attrs_.size());
  for (size_t a = 0; a < attrs_.size(); ++a) {
    out.push_back(Summarize(a));
  }
  return out;
}

}  // namespace popp::stream
