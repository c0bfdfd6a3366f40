#include <gtest/gtest.h>

#include <vector>

#include "data/summary.h"
#include "synth/covtype_like.h"
#include "synth/presets.h"
#include "tree/builder.h"
#include "tree/compare.h"
#include "tree/frontier.h"

/// \file
/// Degenerate-input regressions for the tree builder, plus unit tests of
/// the columnar-partition internals the frontier engine is built on. The
/// degenerate shapes — surfaced by the check/ fuzzer's adversarial
/// generator — sit at the edges the covtype-like sweeps never reach: zero
/// rows, one row, constant columns, and exact split-score ties whose
/// resolution the no-outcome-change guarantee depends on being
/// deterministic.

namespace popp {
namespace {

TEST(BuilderEdge, EmptyDatasetIsACheckedError) {
  const Dataset d({"x"}, {"a", "b"});
  EXPECT_DEATH(DecisionTreeBuilder().Build(d), "cannot build a tree from 0");
}

TEST(BuilderEdge, SingleRowBuildsOneLeaf) {
  Dataset d({"x", "y"}, {"a", "b"});
  d.AddRow({3, 7}, 1);
  const DecisionTree tree = DecisionTreeBuilder().Build(d);
  EXPECT_EQ(tree.NumNodes(), 1u);
  EXPECT_EQ(tree.NumLeaves(), 1u);
  EXPECT_TRUE(tree.node(tree.root()).is_leaf);
  EXPECT_EQ(tree.node(tree.root()).label, 1);
  EXPECT_DOUBLE_EQ(tree.Accuracy(d), 1.0);
}

TEST(BuilderEdge, NoAttributesBuildOneMajorityLeafOnEveryEngine) {
  Dataset d(std::vector<std::string>{}, {"a", "b"});
  for (int r = 0; r < 5; ++r) d.AddRow({}, r % 3 == 0 ? 0 : 1);
  for (const auto algorithm : {BuildOptions::Algorithm::kFrontier,
                               BuildOptions::Algorithm::kResort}) {
    BuildOptions options;
    options.algorithm = algorithm;
    for (const size_t threads : {1, 2}) {
      const DecisionTree tree =
          DecisionTreeBuilder(options, ExecPolicy{threads}).Build(d);
      ASSERT_EQ(tree.NumNodes(), 1u);
      EXPECT_TRUE(tree.node(tree.root()).is_leaf);
      EXPECT_EQ(tree.node(tree.root()).label, 1);
    }
  }
}

TEST(BuilderEdge, AllIdenticalValuesBuildOneMajorityLeaf) {
  // Every attribute constant: no boundary exists anywhere, so the root
  // must become a leaf labeled with the majority class.
  Dataset d({"x", "y"}, {"a", "b"});
  for (int i = 0; i < 5; ++i) d.AddRow({42, -1}, i < 2 ? 0 : 1);
  const DecisionTree tree = DecisionTreeBuilder().Build(d);
  EXPECT_EQ(tree.NumNodes(), 1u);
  EXPECT_EQ(tree.node(tree.root()).label, 1);
}

TEST(BuilderEdge, MajorityTieGoesToLowestClassId) {
  Dataset d({"x"}, {"a", "b", "c"});
  d.AddRow({1}, 2);
  d.AddRow({1}, 1);
  const DecisionTree tree = DecisionTreeBuilder().Build(d);
  EXPECT_EQ(tree.NumNodes(), 1u);
  EXPECT_EQ(tree.node(tree.root()).label, 1);
}

TEST(BuilderEdge, SingleClassDatasetIsOneLeafRegardlessOfValues) {
  Dataset d({"x"}, {"only"});
  for (int i = 0; i < 10; ++i) d.AddRow({static_cast<double>(i)}, 0);
  const DecisionTree tree = DecisionTreeBuilder().Build(d);
  EXPECT_EQ(tree.NumNodes(), 1u);
  EXPECT_EQ(tree.node(tree.root()).label, 0);
}

TEST(BuilderEdge, PalindromicTieResolvesToLowestCanonicalBoundary) {
  // Values 1..4 with classes a,b,b,a: isolating either outer 'a' scores
  // identically under gini and entropy. The documented tie-break chain
  // (lower badness, lower attribute, lower canonical boundary) must pick
  // the boundary after the first value — threshold 1.5, not 3.5.
  for (SplitCriterion criterion :
       {SplitCriterion::kGini, SplitCriterion::kEntropy}) {
    Dataset d({"x"}, {"a", "b"});
    d.AddRow({1}, 0);
    d.AddRow({2}, 1);
    d.AddRow({3}, 1);
    d.AddRow({4}, 0);
    BuildOptions options;
    options.criterion = criterion;
    const DecisionTree tree = DecisionTreeBuilder(options).Build(d);
    const auto& root = tree.node(tree.root());
    ASSERT_FALSE(root.is_leaf);
    EXPECT_EQ(root.attribute, 0u);
    EXPECT_DOUBLE_EQ(root.threshold, 1.5) << ToString(criterion);
  }
}

TEST(BuilderEdge, CrossAttributeTieResolvesToLowestAttribute) {
  // Two identical columns: every split of attribute 1 scores exactly as
  // its twin on attribute 0, so the builder must choose attribute 0.
  Dataset d({"x", "x_copy"}, {"a", "b"});
  d.AddRow({1, 1}, 0);
  d.AddRow({2, 2}, 0);
  d.AddRow({3, 3}, 1);
  d.AddRow({4, 4}, 1);
  const DecisionTree tree = DecisionTreeBuilder().Build(d);
  const auto& root = tree.node(tree.root());
  ASSERT_FALSE(root.is_leaf);
  EXPECT_EQ(root.attribute, 0u);
  EXPECT_DOUBLE_EQ(root.threshold, 2.5);
}

TEST(BuilderEdge, AllAlgorithmsAgreeOnTies) {
  // The two algorithms promise bit-identical trees; exercise that
  // promise on a tie-heavy two-class dataset.
  Dataset d({"x", "y"}, {"a", "b"});
  const int xs[] = {1, 1, 2, 2, 3, 3, 4, 4};
  const int ys[] = {4, 3, 4, 3, 2, 1, 2, 1};
  for (int i = 0; i < 8; ++i) {
    d.AddRow({static_cast<double>(xs[i]), static_cast<double>(ys[i])},
             i % 2);
  }
  BuildOptions resort;
  resort.algorithm = BuildOptions::Algorithm::kResort;
  const DecisionTree a = DecisionTreeBuilder(resort).Build(d);
  BuildOptions frontier;
  frontier.algorithm = BuildOptions::Algorithm::kFrontier;
  const DecisionTree b = DecisionTreeBuilder(frontier).Build(d);
  EXPECT_TRUE(ExactlyEqual(a, b)) << DescribeDifference(a, b);
}

// ---------------------------------------------------------------------------
// ColumnarPartitions: the frontier engine's node-partition substrate.

/// A small dataset with deliberate duplicate values in both columns.
Dataset PartitionFixture() {
  Dataset d({"x", "y"}, {"a", "b", "c"});
  const double xs[] = {5, 1, 3, 1, 5, 3, 2, 2};
  const double ys[] = {9, 9, 7, 7, 8, 8, 9, 7};
  const ClassId cs[] = {0, 1, 2, 0, 1, 2, 0, 1};
  for (int i = 0; i < 8; ++i) d.AddRow({xs[i], ys[i]}, cs[i]);
  return d;
}

void ExpectSummariesEqual(const AttributeSummary& a,
                          const AttributeSummary& b) {
  ASSERT_EQ(a.NumDistinct(), b.NumDistinct());
  ASSERT_EQ(a.NumClasses(), b.NumClasses());
  EXPECT_EQ(a.NumTuples(), b.NumTuples());
  for (size_t i = 0; i < a.NumDistinct(); ++i) {
    EXPECT_EQ(a.ValueAt(i), b.ValueAt(i)) << "value " << i;
    EXPECT_EQ(a.CountAt(i), b.CountAt(i)) << "total " << i;
    for (size_t c = 0; c < a.NumClasses(); ++c) {
      EXPECT_EQ(a.ClassCountAt(i, static_cast<ClassId>(c)),
                b.ClassCountAt(i, static_cast<ClassId>(c)))
          << "value " << i << " class " << c;
    }
  }
}

TEST(ColumnarPartitionsTest, BinCodingIsExactAndOrderIsomorphic) {
  const Dataset d = PartitionFixture();
  ColumnarPartitions parts;
  parts.Init(d);
  ASSERT_EQ(parts.NumAttributes(), 2u);
  EXPECT_EQ(parts.NumRows(), 8u);
  EXPECT_EQ(parts.NumClasses(), 3u);
  EXPECT_EQ(parts.NumBins(0), 4u);  // {1, 2, 3, 5}
  EXPECT_EQ(parts.NumBins(1), 3u);  // {7, 8, 9}
  for (size_t attr = 0; attr < parts.NumAttributes(); ++attr) {
    const auto& col = d.Column(attr);
    for (size_t i = 0; i < parts.NumRows(); ++i) {
      // The bin decodes to the exact original value, bit for bit, and the
      // label rides along with its row.
      EXPECT_EQ(parts.BinValue(attr, parts.BinAt(attr, i)),
                col[parts.RowAt(attr, i)]);
      EXPECT_EQ(parts.LabelAt(attr, i), d.Label(parts.RowAt(attr, i)));
      if (i > 0) {
        EXPECT_LE(parts.BinAt(attr, i - 1), parts.BinAt(attr, i))
            << "views must be value-sorted";
        // Equal values keep ascending row order (stable sort).
        if (parts.BinAt(attr, i - 1) == parts.BinAt(attr, i)) {
          EXPECT_LT(parts.RowAt(attr, i - 1), parts.RowAt(attr, i));
        }
      }
    }
  }
}

TEST(ColumnarPartitionsTest, NodeSummaryMatchesFromTuplesOnRoot) {
  const Dataset d = PartitionFixture();
  ColumnarPartitions parts;
  parts.Init(d);
  const NodeSlice root{0, d.NumRows()};
  for (size_t attr = 0; attr < parts.NumAttributes(); ++attr) {
    AttributeSummary got;
    parts.NodeSummary(attr, root, got);
    ExpectSummariesEqual(AttributeSummary::FromDataset(d, attr), got);
  }
}

TEST(ColumnarPartitionsTest, RepartitionIsStableAndMatchesMark) {
  const Dataset d = PartitionFixture();
  ColumnarPartitions parts;
  parts.Init(d);
  const NodeSlice root{0, d.NumRows()};
  // Split on x <= 2 (bins {1, 2} left, {3, 5} right): 4 rows each.
  const size_t split_attr = 0;
  const AttrValue left_max = 2;
  std::vector<uint64_t> mark_hist;
  parts.ResetSideMask();
  const ColumnarPartitions::MarkResult mark =
      parts.MarkSideRows(split_attr, root, left_max, mark_hist);
  const size_t left_n = mark.left_n;
  EXPECT_EQ(left_n, 4u);
  // An even 4/4 split ties; the tie marks the left side, and the fused
  // histogram counts exactly the marked (left) rows.
  EXPECT_TRUE(mark.marked_left);
  std::vector<uint64_t> expected_hist(d.NumClasses(), 0);
  for (size_t r = 0; r < d.NumRows(); ++r) {
    if (d.Column(split_attr)[r] <= left_max) {
      expected_hist[static_cast<size_t>(d.Label(r))]++;
    }
  }
  EXPECT_EQ(mark_hist, expected_hist);
  const size_t other = 1;
  std::vector<uint32_t> before_rows;
  for (size_t i = 0; i < parts.NumRows(); ++i) {
    before_rows.push_back(parts.RowAt(other, i));
  }
  EXPECT_EQ(parts.Repartition(other, root, left_n, mark.marked_left),
            left_n);
  parts.CopySlice(split_attr, root);  // already partitioned by sortedness
  parts.FinishLevel();
  const auto& split_col = d.Column(split_attr);
  // Left rows occupy the prefix, right rows the suffix, and within each
  // side the original (value-sorted) relative order is preserved.
  std::vector<uint32_t> expected;
  for (uint32_t r : before_rows) {
    if (split_col[r] <= left_max) expected.push_back(r);
  }
  for (uint32_t r : before_rows) {
    if (split_col[r] > left_max) expected.push_back(r);
  }
  ASSERT_EQ(parts.NumRows(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    const uint32_t row = parts.RowAt(other, i);
    EXPECT_EQ(row, expected[i]) << "row slot " << i;
    // The bin/label companions moved with their row.
    EXPECT_EQ(parts.BinValue(other, parts.BinAt(other, i)),
              d.Column(other)[row]);
    EXPECT_EQ(parts.LabelAt(other, i), d.Label(row));
  }
  // Child slices still produce exact tuple-level summaries.
  for (const NodeSlice child :
       {NodeSlice{0, left_n}, NodeSlice{left_n, root.end}}) {
    std::vector<ValueLabel> tuples;
    for (size_t i = child.begin; i < child.end; ++i) {
      tuples.push_back(ValueLabel{d.Column(other)[parts.RowAt(other, i)],
                                  d.Label(parts.RowAt(other, i))});
    }
    AttributeSummary got;
    parts.NodeSummary(other, child, got);
    ExpectSummariesEqual(
        AttributeSummary::FromTuples(std::move(tuples), d.NumClasses()),
        got);
  }
}

TEST(ColumnarPartitionsTest, EmptyAndOneRowSlicesAreWellFormed) {
  const Dataset d = PartitionFixture();
  ColumnarPartitions parts;
  parts.Init(d);
  AttributeSummary summary;
  std::vector<uint64_t> hist;
  const NodeSlice empty{3, 3};
  parts.NodeHistogram(empty, hist);
  for (uint64_t c : hist) EXPECT_EQ(c, 0u);
  parts.NodeSummary(0, empty, summary);
  EXPECT_EQ(summary.NumDistinct(), 0u);
  EXPECT_EQ(summary.NumTuples(), 0u);
  const NodeSlice one{2, 3};
  parts.NodeHistogram(one, hist);
  uint64_t total = 0;
  for (uint64_t c : hist) total += c;
  EXPECT_EQ(total, 1u);
  parts.NodeSummary(0, one, summary);
  EXPECT_EQ(summary.NumDistinct(), 1u);
  EXPECT_EQ(summary.CountAt(0), 1u);
  // A one-row slice marks and repartitions trivially to either side.
  // (Mark and repartition the same attribute: an arbitrary [2, 3) window
  // covers different rows in different views — only split-produced slices
  // hold the same row set across attributes.) Everything routes left, so
  // the empty right side is the smaller one: it gets marked and its fused
  // histogram is all zeros.
  std::vector<uint64_t> mark_hist;
  parts.ResetSideMask();
  const ColumnarPartitions::MarkResult mark =
      parts.MarkSideRows(0, one, 100.0, mark_hist);
  EXPECT_EQ(mark.left_n, 1u);
  EXPECT_FALSE(mark.marked_left);
  uint64_t marked = 0;
  for (uint64_t c : mark_hist) marked += c;
  EXPECT_EQ(marked, 0u);
  EXPECT_EQ(parts.Repartition(0, one, mark.left_n, mark.marked_left), 1u);
}

TEST(ColumnarPartitionsTest, NodeSummariesSurviveRecursiveSplits) {
  // Drive the partitions through two levels of real splits and check every
  // slice's summary against a from-scratch FromTuples at each step.
  Rng rng(29);
  const Dataset d = GenerateCovtypeLike(SmallCovtypeSpec(300), rng);
  ColumnarPartitions parts;
  parts.Init(d);
  std::vector<uint64_t> mark_hist;
  std::vector<NodeSlice> frontier{NodeSlice{0, d.NumRows()}};
  for (int level = 0; level < 2; ++level) {
    // Mirror the builder's level protocol: reset the mask, mark +
    // repartition every splitting slice into the back buffers, then one
    // FinishLevel publishes the whole level; only then are the children
    // readable.
    parts.ResetSideMask();
    std::vector<NodeSlice> next;
    std::vector<std::vector<uint64_t>> child_mark_hists;
    std::vector<bool> child_marked_left;
    for (const NodeSlice& slice : frontier) {
      if (slice.size() < 2) continue;
      // Split at the median row of attribute 0's slice.
      const uint32_t mid_bin =
          parts.BinAt(0, slice.begin + slice.size() / 2);
      if (parts.BinAt(0, slice.begin) == mid_bin) continue;  // constant-ish
      const AttrValue left_max = parts.BinValue(0, mid_bin - 1);
      const ColumnarPartitions::MarkResult mark =
          parts.MarkSideRows(0, slice, left_max, mark_hist);
      const size_t left_n = mark.left_n;
      ASSERT_GT(left_n, 0u);
      ASSERT_LT(left_n, slice.size());
      parts.CopySlice(0, slice);  // the split attribute copies verbatim
      for (size_t attr = 1; attr < parts.NumAttributes(); ++attr) {
        EXPECT_EQ(parts.Repartition(attr, slice, left_n, mark.marked_left),
                  left_n);
      }
      next.push_back(NodeSlice{slice.begin, slice.begin + left_n});
      next.push_back(NodeSlice{slice.begin + left_n, slice.end});
      child_mark_hists.push_back(mark_hist);
      child_marked_left.push_back(mark.marked_left);
    }
    parts.FinishLevel();
    for (size_t i = 0; i < next.size(); ++i) {
      const NodeSlice& child = next[i];
      const bool is_left = i % 2 == 0;
      if (is_left == child_marked_left[i / 2]) {
        // The fused mark histogram equals a fresh scan of the marked
        // (smaller) child.
        std::vector<uint64_t> hist;
        parts.NodeHistogram(child, hist);
        EXPECT_EQ(hist, child_mark_hists[i / 2]) << "marked child " << i;
      }
      for (size_t attr = 0; attr < parts.NumAttributes(); ++attr) {
        std::vector<ValueLabel> tuples;
        for (size_t j = child.begin; j < child.end; ++j) {
          const uint32_t row = parts.RowAt(attr, j);
          tuples.push_back(ValueLabel{d.Column(attr)[row], d.Label(row)});
        }
        AttributeSummary got;
        parts.NodeSummary(attr, child, got);
        ExpectSummariesEqual(
            AttributeSummary::FromTuples(std::move(tuples), d.NumClasses()),
            got);
      }
    }
    frontier = std::move(next);
  }
}

}  // namespace
}  // namespace popp
