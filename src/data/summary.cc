#include "data/summary.h"

#include <algorithm>
#include <cmath>

#include "data/binned_elem.h"
#include "util/status.h"

namespace popp {

AttributeSummary AttributeSummary::FromDataset(const Dataset& data,
                                               size_t attr) {
  const auto& col = data.Column(attr);
  std::vector<ValueLabel> tuples(col.size());
  for (size_t r = 0; r < col.size(); ++r) {
    tuples[r] = ValueLabel{col[r], data.Label(r)};
  }
  return FromTuples(std::move(tuples), data.NumClasses());
}

AttributeSummary AttributeSummary::FromTuples(std::vector<ValueLabel> tuples,
                                              size_t num_classes) {
  std::sort(tuples.begin(), tuples.end(), ValueLabelLess());
  return FromSortedTuples(tuples, num_classes);
}

AttributeSummary AttributeSummary::FromSortedTuples(
    const std::vector<ValueLabel>& tuples, size_t num_classes) {
  POPP_CHECK(num_classes > 0);
  AttributeSummary s;
  s.num_classes_ = num_classes;
  s.num_tuples_ = tuples.size();
  if (tuples.empty()) return s;

  for (size_t i = 0; i < tuples.size();) {
    POPP_DCHECK(i == 0 || tuples[i - 1].value <= tuples[i].value);
    const AttrValue v = tuples[i].value;
    s.values_.push_back(v);
    s.totals_.push_back(0);
    s.class_counts_.resize(s.class_counts_.size() + num_classes, 0);
    uint32_t* counts =
        &s.class_counts_[(s.values_.size() - 1) * num_classes];
    while (i < tuples.size() && tuples[i].value == v) {
      // A run of zeros is represented by -0.0 if it holds one, whichever
      // zero the sort put first — the choice IncrementalSummary and the
      // frontier engine's bins make too, so every path writes one key.
      if (v == 0 && std::signbit(tuples[i].value)) s.values_.back() = -0.0;
      const ClassId c = tuples[i].label;
      POPP_CHECK_MSG(c >= 0 && static_cast<size_t>(c) < num_classes,
                     "bad class id " << c);
      counts[c]++;
      s.totals_.back()++;
      ++i;
    }
  }
  return s;
}

void AttributeSummary::AssignFromBinnedSlice(const uint64_t* elems, size_t n,
                                             const AttrValue* bin_values,
                                             size_t num_classes) {
  POPP_CHECK(num_classes > 0);
  num_classes_ = num_classes;
  num_tuples_ = n;
  // Pre-count the distinct bins so the class-count table is sized and
  // zeroed in one step — a per-value resize() is a function call per
  // distinct value, which dominates on the millions of small slices a
  // deep tree produces. The count is a branchless neighbor-compare
  // reduction, which the compiler turns into SIMD compares.
  size_t distinct = n > 0 ? 1 : 0;
  for (size_t i = 1; i < n; ++i) {
    distinct += static_cast<size_t>(ElemBin(elems[i]) != ElemBin(elems[i - 1]));
  }
  values_.clear();
  values_.reserve(distinct);
  totals_.clear();
  totals_.reserve(distinct);
  class_counts_.assign(distinct * num_classes, 0);
  for (size_t i = 0; i < n;) {
    const uint32_t bin = ElemBin(elems[i]);
    POPP_DCHECK(i == 0 || ElemBin(elems[i - 1]) < bin);
    values_.push_back(bin_values[bin]);
    uint32_t* counts = &class_counts_[(values_.size() - 1) * num_classes];
    uint32_t total = 0;
    while (i < n && ElemBin(elems[i]) == bin) {
      const ClassId c = ElemLabel(elems[i]);
      POPP_DCHECK(c >= 0 && static_cast<size_t>(c) < num_classes);
      counts[c]++;
      ++total;
      ++i;
    }
    totals_.push_back(total);
  }
}

void AttributeSummary::AssignDifference(const AttributeSummary& full,
                                        const AttributeSummary& part) {
  POPP_DCHECK(full.num_classes_ == part.num_classes_);
  const size_t k = full.num_classes_;
  values_.clear();
  totals_.clear();
  class_counts_.clear();
  num_classes_ = k;
  num_tuples_ = full.num_tuples_ - part.num_tuples_;
  size_t j = 0;  // merge cursor into part (its values are a subsequence)
  for (size_t i = 0; i < full.values_.size(); ++i) {
    const AttrValue v = full.values_[i];
    const uint32_t* fc = &full.class_counts_[i * k];
    if (j < part.values_.size() && part.values_[j] == v) {
      const uint32_t total = full.totals_[i] - part.totals_[j];
      const uint32_t* pc = &part.class_counts_[j * k];
      ++j;
      if (total == 0) continue;  // value fully consumed by `part`
      values_.push_back(v);
      totals_.push_back(total);
      const size_t base = class_counts_.size();
      class_counts_.resize(base + k);
      for (size_t c = 0; c < k; ++c) class_counts_[base + c] = fc[c] - pc[c];
    } else {
      values_.push_back(v);
      totals_.push_back(full.totals_[i]);
      class_counts_.insert(class_counts_.end(), fc, fc + k);
    }
  }
  POPP_DCHECK(j == part.values_.size());
}

void AttributeSummary::AssignRange(const AttributeSummary& full, size_t begin,
                                   size_t end) {
  POPP_DCHECK(begin < end && end <= full.values_.size());
  const size_t k = full.num_classes_;
  num_classes_ = k;
  values_.assign(full.values_.begin() + begin, full.values_.begin() + end);
  totals_.assign(full.totals_.begin() + begin, full.totals_.begin() + end);
  class_counts_.assign(full.class_counts_.begin() + begin * k,
                       full.class_counts_.begin() + end * k);
  num_tuples_ = 0;
  for (const uint32_t t : totals_) num_tuples_ += t;
}

AttributeSummary AttributeSummary::FromDistinctCounts(
    std::vector<AttrValue> values, std::vector<uint32_t> class_counts,
    size_t num_classes) {
  POPP_CHECK(num_classes > 0);
  POPP_CHECK_MSG(class_counts.size() == values.size() * num_classes,
                 "FromDistinctCounts: count matrix shape mismatch");
  AttributeSummary s;
  s.num_classes_ = num_classes;
  s.values_ = std::move(values);
  s.class_counts_ = std::move(class_counts);
  s.totals_.resize(s.values_.size(), 0);
  for (size_t i = 0; i < s.values_.size(); ++i) {
    POPP_CHECK_MSG(i == 0 || s.values_[i - 1] < s.values_[i],
                   "FromDistinctCounts: values must strictly increase");
    uint32_t total = 0;
    for (size_t c = 0; c < num_classes; ++c) {
      total += s.class_counts_[i * num_classes + c];
    }
    POPP_CHECK_MSG(total > 0, "FromDistinctCounts: value " << s.values_[i]
                                                           << " has no tuples");
    s.totals_[i] = total;
    s.num_tuples_ += total;
  }
  return s;
}

AttrValue AttributeSummary::MinValue() const {
  POPP_CHECK(!values_.empty());
  return values_.front();
}

AttrValue AttributeSummary::MaxValue() const {
  POPP_CHECK(!values_.empty());
  return values_.back();
}

uint32_t AttributeSummary::ClassCountAt(size_t i, ClassId c) const {
  POPP_DCHECK(i < values_.size());
  POPP_DCHECK(c >= 0 && static_cast<size_t>(c) < num_classes_);
  return class_counts_[i * num_classes_ + static_cast<size_t>(c)];
}

bool AttributeSummary::IsMonochromatic(size_t i) const {
  return MonoClassAt(i) != kNoClass;
}

ClassId AttributeSummary::MonoClassAt(size_t i) const {
  POPP_DCHECK(i < values_.size());
  ClassId mono = kNoClass;
  for (size_t c = 0; c < num_classes_; ++c) {
    if (class_counts_[i * num_classes_ + c] > 0) {
      if (mono != kNoClass) return kNoClass;  // second class seen
      mono = static_cast<ClassId>(c);
    }
  }
  return mono;
}

double AttributeSummary::DynamicRangeWidth(double step) const {
  if (values_.empty()) return 0.0;
  POPP_CHECK(step > 0.0);
  return std::round((values_.back() - values_.front()) / step) + 1.0;
}

size_t AttributeSummary::NumDiscontinuities(double step) const {
  if (values_.empty()) return 0;
  const double width = DynamicRangeWidth(step);
  const double distinct = static_cast<double>(values_.size());
  return width > distinct ? static_cast<size_t>(width - distinct) : 0;
}

size_t AttributeSummary::IndexOf(AttrValue v) const {
  auto it = std::lower_bound(values_.begin(), values_.end(), v);
  if (it == values_.end() || *it != v) return npos;
  return static_cast<size_t>(it - values_.begin());
}

std::vector<size_t> AttributeSummary::ClassHistogram() const {
  std::vector<size_t> hist(num_classes_, 0);
  for (size_t i = 0; i < values_.size(); ++i) {
    for (size_t c = 0; c < num_classes_; ++c) {
      hist[c] += class_counts_[i * num_classes_ + c];
    }
  }
  return hist;
}

}  // namespace popp
