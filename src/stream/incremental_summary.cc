#include "stream/incremental_summary.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/status.h"

namespace popp::stream {
namespace {

/// Re-keys the zero entry `it` of `counts` as -0.0 (rare: at most once per
/// attribute and source).
template <typename ValueCounts>
[[gnu::noinline]] typename ValueCounts::iterator NegativeZeroKey(
    ValueCounts& counts, typename ValueCounts::iterator it) {
  auto node = counts.extract(it);
  node.key() = -0.0;
  return counts.insert(std::move(node)).position;
}

/// The counts slot of `x`. Zero's key becomes -0.0 once any -0.0 arrives,
/// so the summary does not depend on which zero came first (the batch
/// AttributeSummary::FromSortedTuples makes the same choice).
template <typename ValueCounts>
std::vector<uint32_t>& SlotOf(ValueCounts& counts, AttrValue x) {
  auto it = counts.try_emplace(x).first;
  if (x == 0 && std::signbit(x) && !std::signbit(it->first)) [[unlikely]] {
    it = NegativeZeroKey(counts, it);
  }
  return it->second;
}

}  // namespace

IncrementalSummary::IncrementalSummary(size_t num_attributes)
    : attrs_(num_attributes) {
  POPP_CHECK_MSG(num_attributes > 0, "IncrementalSummary needs attributes");
}

void IncrementalSummary::Absorb(const Dataset& chunk) {
  POPP_CHECK_MSG(chunk.NumAttributes() == attrs_.size(),
                 "Absorb: attribute count mismatch");
  num_classes_ = std::max(num_classes_, chunk.NumClasses());
  for (size_t a = 0; a < attrs_.size(); ++a) {
    ValueCounts& counts = attrs_[a];
    const auto& col = chunk.Column(a);
    for (size_t r = 0; r < col.size(); ++r) {
      const ClassId label = chunk.Label(r);
      POPP_CHECK_MSG(label >= 0 &&
                         static_cast<size_t>(label) < num_classes_,
                     "Absorb: bad class id " << label);
      std::vector<uint32_t>& slot = SlotOf(counts, col[r]);
      if (slot.size() <= static_cast<size_t>(label)) {
        slot.resize(num_classes_, 0);
      }
      slot[static_cast<size_t>(label)]++;
    }
  }
  num_rows_ += chunk.NumRows();
}

void IncrementalSummary::Merge(const IncrementalSummary& other) {
  POPP_CHECK_MSG(other.attrs_.size() == attrs_.size(),
                 "Merge: attribute count mismatch");
  num_classes_ = std::max(num_classes_, other.num_classes_);
  for (size_t a = 0; a < attrs_.size(); ++a) {
    for (const auto& [value, other_counts] : other.attrs_[a]) {
      std::vector<uint32_t>& slot = SlotOf(attrs_[a], value);
      if (slot.size() < other_counts.size()) {
        slot.resize(other_counts.size(), 0);
      }
      for (size_t c = 0; c < other_counts.size(); ++c) {
        slot[c] += other_counts[c];
      }
    }
  }
  num_rows_ += other.num_rows_;
}

size_t IncrementalSummary::NumDistinct(size_t attr) const {
  POPP_CHECK_MSG(attr < attrs_.size(), "bad attribute " << attr);
  return attrs_[attr].size();
}

AttrValue IncrementalSummary::MinValue(size_t attr) const {
  POPP_CHECK_MSG(attr < attrs_.size(), "bad attribute " << attr);
  POPP_CHECK_MSG(!attrs_[attr].empty(), "MinValue on empty summary");
  return attrs_[attr].begin()->first;
}

AttrValue IncrementalSummary::MaxValue(size_t attr) const {
  POPP_CHECK_MSG(attr < attrs_.size(), "bad attribute " << attr);
  POPP_CHECK_MSG(!attrs_[attr].empty(), "MaxValue on empty summary");
  return attrs_[attr].rbegin()->first;
}

AttributeSummary IncrementalSummary::Summarize(size_t attr) const {
  POPP_CHECK_MSG(attr < attrs_.size(), "bad attribute " << attr);
  const ValueCounts& counts = attrs_[attr];
  std::vector<AttrValue> values;
  std::vector<uint32_t> class_counts;
  values.reserve(counts.size());
  class_counts.reserve(counts.size() * num_classes_);
  for (const auto& [value, per_class] : counts) {
    values.push_back(value);
    for (size_t c = 0; c < num_classes_; ++c) {
      class_counts.push_back(c < per_class.size() ? per_class[c] : 0);
    }
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
