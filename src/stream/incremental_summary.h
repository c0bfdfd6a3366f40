#ifndef POPP_STREAM_INCREMENTAL_SUMMARY_H_
#define POPP_STREAM_INCREMENTAL_SUMMARY_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "data/summary.h"
#include "data/value_index.h"

/// \file
/// Incrementally maintained per-attribute active domains and distinct-value
/// class histograms — the domain-level state the plan fit needs, absorbed
/// chunk by chunk. State is O(sum over attributes of #distinct values),
/// independent of the number of rows, which is what keeps the two-pass
/// streamed fit inside the bounded-memory contract.
///
/// The merge-equality claim (proved by `stream_test` and the
/// `stream_vs_batch` oracle): for any chunking of a dataset D,
/// absorbing the chunks in order — or absorbing disjoint sub-streams and
/// Merge()-ing them in any grouping — then calling Summarize(a) yields a
/// summary field-identical to `AttributeSummary::FromDataset(D, a)`.
/// It holds because both sides compute the same pure aggregate: the
/// per-(value, class) tuple count, which is associative and commutative
/// under addition, rendered in sorted value order.
///
/// Per cell, Absorb pays one ValueIndex probe and one count increment; the
/// distinct values are sorted only when Summarize renders them.

namespace popp::shard {
class SummaryCodec;
}  // namespace popp::shard

namespace popp::stream {

class IncrementalSummary {
 public:
  /// The attribute count is fixed up front; the class dictionary may keep
  /// growing across chunks (append-only ids, as produced by ChunkReader).
  explicit IncrementalSummary(size_t num_attributes);

  /// Folds one chunk into the running state. The chunk's labels must use
  /// the shared append-only ClassId space.
  void Absorb(const Dataset& chunk);

  /// Folds another incremental summary (same attribute count) into this
  /// one — the parallel-absorb combiner.
  void Merge(const IncrementalSummary& other);

  size_t NumAttributes() const { return attrs_.size(); }
  size_t NumClasses() const { return num_classes_; }
  size_t NumRows() const { return num_rows_; }

  bool empty() const { return num_rows_ == 0; }

  /// Materializes the batch-equal summary of one attribute.
  AttributeSummary Summarize(size_t attr) const;

  /// Materializes every attribute (the plan-fit input).
  std::vector<AttributeSummary> SummarizeAll() const;

 private:
  /// The shard codec serializes and rebuilds this state through
  /// SortedValues and AddValue (value bit patterns and per-class counts),
  /// so a forked worker's summary survives the trip through a CRC-footered
  /// artifact unchanged.
  friend class popp::shard::SummaryCodec;

  /// The distinct values of `attr` in ascending order, each with its
  /// NumClasses() per-class tuple counts (valid until the next change).
  std::vector<std::pair<AttrValue, const uint32_t*>> SortedValues(
      size_t attr) const;

  /// Adds `value` to `attr` with zero counts and returns its counts row
  /// (NumClasses() entries), or nullptr if `attr` already holds the value
  /// (0.0 and -0.0 being one value).
  uint32_t* AddValue(size_t attr, AttrValue value);

  /// One attribute's distinct values and their per-class tuple counts.
  struct AttrCounts {
    /// Value bits -> slot. 0.0 and -0.0 are one value: both key as the
    /// bits of 0.0.
    ValueIndex index;
    /// counts[slot * stride_ + c]: tuples with the slot's value and class c.
    std::vector<uint32_t> counts;
    /// Set once any -0.0 arrives: the zero slot's value is then -0.0, so
    /// the summary does not depend on which zero came first (the batch
    /// AttributeSummary::FromSortedTuples makes the same choice).
    bool negative_zero = false;
  };

  /// The counts row (stride_ entries) of the value keyed `key`, appending
  /// a zero row if the value is new.
  uint32_t* KeyRow(AttrCounts& attr, uint64_t key);

  /// KeyRow() of value `x`, keyed by its bits with -0.0 keyed as 0.0; a -0.0
  /// sets `negative_zero`.
  uint32_t* ValueRow(AttrCounts& attr, AttrValue x);

  /// Grows the row stride to hold `num_classes` classes (geometrically, so
  /// classes trickling in re-lay the counts O(log #classes) times).
  void Widen(size_t num_classes);

  std::vector<AttrCounts> attrs_;
  size_t stride_ = 0;  ///< >= num_classes_
  size_t num_classes_ = 0;
  size_t num_rows_ = 0;
};

}  // namespace popp::stream

#endif  // POPP_STREAM_INCREMENTAL_SUMMARY_H_
