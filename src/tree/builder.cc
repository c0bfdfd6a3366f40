#include "tree/builder.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>

#include "data/summary.h"
#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"
#include "tree/frontier.h"
#include "tree/label_runs.h"
#include "util/status.h"

namespace popp {
namespace {

/// Nodes smaller than this search their splits serially even when a pool
/// is available: the per-task overhead would exceed the scan work, and —
/// because parallel and serial scans are bit-identical by construction —
/// the gate cannot change any result. (kResort only; the frontier engine
/// batches small nodes into level-wide work lists.)
constexpr size_t kMinRowsForParallelScan = 2048;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Class histogram of a row subset.
std::vector<uint64_t> HistogramOf(const Dataset& data,
                                  const std::vector<size_t>& rows) {
  std::vector<uint64_t> hist(data.NumClasses(), 0);
  for (size_t r : rows) {
    hist[static_cast<size_t>(data.Label(r))]++;
  }
  return hist;
}

bool IsPure(const std::vector<uint64_t>& hist) {
  int nonzero = 0;
  for (uint64_t c : hist) {
    if (c > 0 && ++nonzero > 1) return false;
  }
  return true;
}

/// The tie-break structure of one attribute at a node, at *block*
/// granularity: a block is a maximal group of consecutive monochromatic
/// values of one class, and every mixed (non-monochromatic) value is a
/// block of its own. Run-boundary candidates are exactly the block edges.
///
/// Block granularity is what makes exact-tie resolution transform
/// invariant. The transforms the paper allows reorder values only *within*
/// a block — an F_bi permutation piece or a direction-free monotone piece
/// lives inside one monochromatic run — so a block's begin, end and
/// aggregate class counts survive any legal release, while the per-value
/// count sequence does not (two equal-badness run boundaries used to
/// resolve differently when a permutation piece shuffled value
/// multiplicities inside a run; found by popp_check).
///
/// All buffers are assign()-ed, never freshly allocated, so one structure
/// per worker thread serves the whole build.
struct BlockStructure {
  std::vector<size_t> block_of;   ///< value index -> block id
  std::vector<size_t> begin_of;   ///< block id -> first value index
  std::vector<size_t> length_of;  ///< block id -> number of values
  std::vector<uint64_t> agg;      ///< [block * classes + c] aggregate counts
  bool reversed = false;          ///< scanning back-to-front is canonical

  size_t NumBlocks() const { return begin_of.size(); }
};

/// Decides the canonical scan orientation by lexicographically comparing
/// the block-aggregate class-count sequence forwards vs backwards. An
/// order-reversing transformation reverses the block sequence and flips
/// this bit; monotone and F_bi releases leave it unchanged. Fully
/// palindromic block sequences keep the forward orientation — the two
/// directions are indistinguishable by class structure alone.
/// `mono[i]` must be MonoClassAt(i) of every value (AppendMonoClasses).
void ComputeBlocksInto(const AttributeSummary& summary,
                       const std::vector<ClassId>& mono,
                       BlockStructure& blocks) {
  const size_t n = summary.NumDistinct();
  const size_t k = summary.NumClasses();
  blocks.reversed = false;
  blocks.block_of.assign(n, 0);
  blocks.begin_of.clear();
  blocks.length_of.clear();
  ClassId prev = mono[0];
  blocks.begin_of.push_back(0);
  for (size_t i = 1; i < n; ++i) {
    const ClassId cur = mono[i];
    if (cur == kNoClass || prev == kNoClass || cur != prev) {
      blocks.length_of.push_back(i - blocks.begin_of.back());
      blocks.begin_of.push_back(i);
    }
    blocks.block_of[i] = blocks.begin_of.size() - 1;
    prev = cur;
  }
  blocks.length_of.push_back(n - blocks.begin_of.back());

  const size_t num_blocks = blocks.NumBlocks();
  blocks.agg.assign(num_blocks * k, 0);
  for (size_t i = 0; i < n; ++i) {
    uint64_t* agg_row = &blocks.agg[blocks.block_of[i] * k];
    const uint32_t* counts = summary.ClassCountsRow(i);
    for (size_t c = 0; c < k; ++c) {
      agg_row[c] += counts[c];
    }
  }
  for (size_t i = 0, j = num_blocks; i < j--; ++i) {
    for (size_t c = 0; c < k; ++c) {
      if (blocks.agg[i * k + c] != blocks.agg[j * k + c]) {
        blocks.reversed = blocks.agg[j * k + c] < blocks.agg[i * k + c];
        return;
      }
    }
  }
  // Palindrome: keep the forward orientation.
}

/// Canonical position of boundary b: its block ordinal counted from the
/// canonical end, plus a value-level fraction when the boundary is
/// interior to a block. Interior boundaries never win an exact tie against
/// a block edge under a concave criterion, so the fraction's
/// permutation-sensitivity is harmless; it only orders candidates the
/// guarantee does not cover.
double CanonicalPosition(const BlockStructure& blocks, size_t b) {
  const size_t blk = blocks.block_of[b];
  const bool edge = blocks.block_of[b - 1] != blk;
  const size_t num_blocks = blocks.NumBlocks();
  if (!blocks.reversed) {
    if (edge) return static_cast<double>(blk);
    return static_cast<double>(blk) +
           static_cast<double>(b - blocks.begin_of[blk]) /
               static_cast<double>(blocks.length_of[blk]);
  }
  if (edge) return static_cast<double>(num_blocks - blk);
  return static_cast<double>(num_blocks - 1 - blk) +
         static_cast<double>(blocks.begin_of[blk] + blocks.length_of[blk] -
                             b) /
             static_cast<double>(blocks.length_of[blk]);
}

/// Serial, attribute-ordered merge of per-attribute local bests. A
/// cross-attribute exact tie keeps the earlier attribute, so the merged
/// decision matches a serial scan over all attributes in index order.
SplitDecision MergeAttributeBests(const SplitDecision* locals, size_t count) {
  SplitDecision best;
  for (size_t i = 0; i < count; ++i) {
    const SplitDecision& local = locals[i];
    if (local.found && (!best.found || local.impurity < best.impurity)) {
      best = local;
    }
  }
  return best;
}

/// Per-worker scratch of the split scan: the running class-count
/// accumulators, the exact-tie candidate list and the tie-break block
/// structure, all capacity-reusing. One instance per thread serves every
/// (node, attribute) work item that thread claims; determinism is
/// untouched because each field is fully rewritten per item.
struct ScanScratch {
  std::vector<ClassId> mono;
  BlockStructure blocks;
  std::vector<uint64_t> left;
  std::vector<uint64_t> right;
  std::vector<uint64_t> best_left;
  std::vector<size_t> ties;
};

ScanScratch& LocalScanScratch() {
  thread_local ScanScratch scratch;
  return scratch;
}

}  // namespace

/// SplitBadness(kGini, left, right) with the side totals already on hand.
/// Mirrors criterion.cc's WeightedSplitImpurity/GiniImpurity expression
/// for expression — same divisions, same ascending-class accumulation of
/// p*p, same final wl*gl + wr*gr — so the result is the same double bit
/// for bit; it only skips the three redundant count-total passes and the
/// per-candidate call, which dominate the split scan at scale. Any change
/// to the criterion.cc Gini path must be mirrored here (the cross-engine
/// equality tests catch a divergence).
double GiniSplitBadness(const std::vector<uint64_t>& left,
                        const std::vector<uint64_t>& right, uint64_t nl,
                        uint64_t nr) {
  const size_t k = left.size();
  if (k > (1u << kElemLabelBits)) {
    return SplitBadness(SplitCriterion::kGini, left, right);
  }
  const uint64_t n = nl + nr;
  if (n == 0) return 0.0;
  const double wl = static_cast<double>(nl) / static_cast<double>(n);
  const double wr = static_cast<double>(nr) / static_cast<double>(n);
  // The class-probability divisions land in a staging buffer so the
  // compiler can vectorize them (IEEE division is exactly rounded per
  // lane — lane width cannot change a bit). The p*p accumulation stays a
  // separate, sequential loop: its addition order is the rounding order
  // and must match criterion.cc's exactly.
  double p[1u << kElemLabelBits];
  double gl = 0.0;
  if (nl != 0) {
    const double dn = static_cast<double>(nl);
    for (size_t c = 0; c < k; ++c) {
      p[c] = static_cast<double>(left[c]) / dn;
    }
    double sum_sq = 0.0;
    for (size_t c = 0; c < k; ++c) sum_sq += p[c] * p[c];
    gl = 1.0 - sum_sq;
  }
  double gr = 0.0;
  if (nr != 0) {
    const double dn = static_cast<double>(nr);
    for (size_t c = 0; c < k; ++c) {
      p[c] = static_cast<double>(right[c]) / dn;
    }
    double sum_sq = 0.0;
    for (size_t c = 0; c < k; ++c) sum_sq += p[c] * p[c];
    gr = 1.0 - sum_sq;
  }
  return wl * gl + wr * gr;
}

ClassId MajorityClass(const std::vector<uint64_t>& hist) {
  ClassId best = kNoClass;
  uint64_t best_count = 0;
  for (size_t c = 0; c < hist.size(); ++c) {
    if (hist[c] > best_count) {
      best_count = hist[c];
      best = static_cast<ClassId>(c);
    }
  }
  return best;
}

/// The frontier engine's split scan: evaluates one attribute's candidates
/// and fills `best` with the winner (left untouched when no feasible
/// candidate exists). Must stay bit-identical to ScanAttributeReference —
/// the straightforward eager scan kResort runs — which the cross-engine
/// equality tests and the frontier_vs_resort oracle enforce tree by tree.
///
/// Tie-breaking: lower badness wins; among exact ties, lower attribute
/// index (applied by MergeAttributeBests), then lower *canonical* boundary
/// position. The canonical position is block-granular and counts from
/// whichever end makes the block-aggregate class-count sequence
/// lexicographically smaller, so the choice is invariant under every
/// release the paper allows — monotone, anti-monotone, and F_bi within-run
/// permutations (Theorems 1/2 under ties; see BlockStructure).
///
/// The scan is single-pass and tie-lazy: badness is evaluated as the
/// left-side counts advance, and the block structure — needed only to
/// order *exact* ties — is built the first time a tie for the minimum
/// survives the pass. On real-valued data exact ties are rare, so the
/// common path does no block work at all. The lazily-resolved winner is
/// identical to an eager per-candidate comparison's because canonical
/// positions are injective in the boundary index, making the minimum
/// unique; the tie list holds every candidate whose badness bit-equals the
/// final minimum (a strictly lower badness clears it), which is exactly
/// the set the eager scan compared positions over.
void DecisionTreeBuilder::ScanAttribute(
    size_t attr, const AttributeSummary& summary,
    const std::vector<uint64_t>& parent_hist, SplitDecision& best) const {
  const size_t n = summary.NumDistinct();
  if (n < 2) return;
  const size_t num_classes = summary.NumClasses();
  const bool runs_only =
      options_.candidate_mode == BuildOptions::CandidateMode::kRunBoundaries;
  const bool gini = options_.criterion == SplitCriterion::kGini;
  ScanScratch& ws = LocalScanScratch();

  // Left-side class counts, advanced value by value.
  ws.left.assign(num_classes, 0);
  ws.right.assign(num_classes, 0);
  uint64_t left_total = 0;
  uint64_t total = 0;
  for (size_t c = 0; c < num_classes; ++c) {
    ws.right[c] = parent_hist[c];
    total += parent_hist[c];
  }

  const auto mono_of = [&](size_t i) -> ClassId {
    const uint32_t* counts = summary.ClassCountsRow(i);
    ClassId mono = kNoClass;
    for (size_t c = 0; c < num_classes; ++c) {
      if (counts[c] > 0) {
        if (mono != kNoClass) return kNoClass;  // second class seen
        mono = static_cast<ClassId>(c);
      }
    }
    return mono;
  };

  bool found = false;
  double best_badness = 0.0;
  size_t best_b = 0;
  ws.ties.clear();
  ClassId mono_prev = runs_only ? mono_of(0) : kNoClass;
  for (size_t b = 1; b < n; ++b) {
    const uint32_t* counts = summary.ClassCountsRow(b - 1);
    for (size_t c = 0; c < num_classes; ++c) {
      const uint64_t k = counts[c];
      ws.left[c] += k;
      ws.right[c] -= k;
      left_total += k;
    }
    if (runs_only) {
      // A boundary is a candidate iff either neighboring value mixes
      // classes or the two pure neighbors' classes differ (Lemma 2).
      const ClassId mono_cur = mono_of(b);
      const bool candidate = mono_prev == kNoClass || mono_cur == kNoClass ||
                             mono_prev != mono_cur;
      mono_prev = mono_cur;
      if (!candidate) continue;
    }
    const uint64_t right_total = total - left_total;
    if (left_total < options_.min_leaf_size ||
        right_total < options_.min_leaf_size) {
      continue;
    }
    const double badness =
        gini ? GiniSplitBadness(ws.left, ws.right, left_total, right_total)
             : SplitBadness(options_.criterion, ws.left, ws.right);
    if (!found || badness < best_badness) {
      found = true;
      best_badness = badness;
      best_b = b;
      ws.best_left = ws.left;
      ws.ties.clear();
    } else if (badness == best_badness) {
      ws.ties.push_back(b);
    }
  }
  if (!found) return;

  if (!ws.ties.empty()) {
    // Exact ties survived: build the block structure now and keep the
    // candidate with the lowest canonical position.
    AppendMonoClasses(summary, ws.mono);
    ComputeBlocksInto(summary, ws.mono, ws.blocks);
    double best_pos = CanonicalPosition(ws.blocks, best_b);
    bool moved = false;
    for (size_t b : ws.ties) {
      const double pos = CanonicalPosition(ws.blocks, b);
      if (pos < best_pos) {
        best_pos = pos;
        best_b = b;
        moved = true;
      }
    }
    if (moved) {
      // Recount the winner's left side (exact integer sums; only reached
      // on a resolved tie, never on the hot path).
      ws.best_left.assign(num_classes, 0);
      for (size_t i = 0; i < best_b; ++i) {
        const uint32_t* counts = summary.ClassCountsRow(i);
        for (size_t c = 0; c < num_classes; ++c) {
          ws.best_left[c] += counts[c];
        }
      }
    }
  }

  for (size_t c = 0; c < num_classes; ++c) {
    ws.right[c] = parent_hist[c] - ws.best_left[c];
  }
  best.found = true;
  best.attribute = attr;
  best.boundary_index = best_b;
  best.left_max = summary.ValueAt(best_b - 1);
  best.right_min = summary.ValueAt(best_b);
  best.threshold = best.left_max + (best.right_min - best.left_max) / 2;
  best.impurity = best_badness;
  best.improvement = SplitImprovement(options_.criterion, parent_hist,
                                      ws.best_left, ws.right);
}

/// Reference split scan, used by kResort: materializes the candidate list
/// and the block structure up front and compares canonical positions
/// eagerly on every exact badness tie. This is the pre-frontier
/// implementation, kept deliberately: kResort is the oracle the frontier
/// is byte-compared against, so its scan stays the
/// straightforward one — two independently structured scans agreeing on
/// every tree is a far stronger check than one scan agreeing with itself.
/// It is also what the benchmark's engine-over-engine tree speedup is
/// measured against: the baseline engine runs the code the repository had
/// before the frontier rework, not a baseline accelerated by the
/// frontier's own scan optimizations.
void DecisionTreeBuilder::ScanAttributeReference(
    size_t attr, const AttributeSummary& summary,
    const std::vector<uint64_t>& parent_hist, SplitDecision& best) const {
  const size_t n = summary.NumDistinct();
  if (n < 2) return;
  const size_t num_classes = summary.NumClasses();

  std::vector<size_t> candidates;
  if (options_.candidate_mode == BuildOptions::CandidateMode::kRunBoundaries) {
    candidates = RunBoundaryCandidates(summary);
  } else {
    candidates.reserve(n - 1);
    for (size_t b = 1; b < n; ++b) candidates.push_back(b);
  }

  std::vector<ClassId> mono;
  AppendMonoClasses(summary, mono);
  BlockStructure blocks;
  ComputeBlocksInto(summary, mono, blocks);

  // Left-side class counts, advanced value by value; `next` is the first
  // summary index not yet merged into the left side.
  std::vector<uint64_t> left(num_classes, 0);
  std::vector<uint64_t> right(num_classes, 0);
  uint64_t left_total = 0;
  uint64_t total = 0;
  for (size_t c = 0; c < num_classes; ++c) {
    right[c] = parent_hist[c];
    total += parent_hist[c];
  }

  double best_canon_pos = 0.0;
  size_t next = 0;
  for (size_t b : candidates) {
    while (next < b) {
      for (size_t c = 0; c < num_classes; ++c) {
        const uint64_t k =
            summary.ClassCountAt(next, static_cast<ClassId>(c));
        left[c] += k;
        right[c] -= k;
        left_total += k;
      }
      ++next;
    }
    const uint64_t right_total = total - left_total;
    if (left_total < options_.min_leaf_size ||
        right_total < options_.min_leaf_size) {
      continue;
    }
    const double badness = SplitBadness(options_.criterion, left, right);
    const double canon_pos = CanonicalPosition(blocks, b);
    const bool better =
        !best.found || badness < best.impurity ||
        (badness == best.impurity && attr == best.attribute &&
         canon_pos < best_canon_pos);
    if (better) {
      best.found = true;
      best.attribute = attr;
      best.boundary_index = b;
      best.left_max = summary.ValueAt(b - 1);
      best.right_min = summary.ValueAt(b);
      best.threshold = best.left_max + (best.right_min - best.left_max) / 2;
      best.impurity = badness;
      best.improvement =
          SplitImprovement(options_.criterion, parent_hist, left, right);
      best_canon_pos = canon_pos;
    }
  }
}

SplitDecision DecisionTreeBuilder::FindBestSplit(
    const Dataset& data, const std::vector<size_t>& rows) const {
  if (exec_.IsSerial()) {
    return FindBestSplit(data, rows, nullptr);
  }
  ThreadPool pool(exec_.ResolvedThreads());
  return FindBestSplit(data, rows, &pool);
}

SplitDecision DecisionTreeBuilder::FindBestSplit(
    const Dataset& data, const std::vector<size_t>& rows,
    ThreadPool* pool) const {
  const size_t num_classes = data.NumClasses();
  const std::vector<uint64_t> parent_hist = HistogramOf(data, rows);
  if (rows.size() < kMinRowsForParallelScan) pool = nullptr;

  std::vector<SplitDecision> locals(data.NumAttributes());
  ParallelFor(pool, data.NumAttributes(), [&](size_t attr) {
    std::vector<ValueLabel> tuples;
    tuples.reserve(rows.size());
    const auto& col = data.Column(attr);
    for (size_t r : rows) {
      tuples.push_back(ValueLabel{col[r], data.Label(r)});
    }
    const AttributeSummary summary =
        AttributeSummary::FromTuples(std::move(tuples), num_classes);
    ScanAttributeReference(attr, summary, parent_hist, locals[attr]);
  });
  return MergeAttributeBests(locals.data(), locals.size());
}

NodeId DecisionTreeBuilder::BuildNode(const Dataset& data,
                                      std::vector<size_t>& rows, size_t depth,
                                      DecisionTree& tree,
                                      ThreadPool* pool) const {
  std::vector<uint64_t> hist = HistogramOf(data, rows);
  const ClassId majority = MajorityClass(hist);

  if (IsPure(hist) || rows.size() < options_.min_split_size ||
      depth >= options_.max_depth) {
    return tree.AddLeaf(majority, std::move(hist));
  }

  const SplitDecision split = FindBestSplit(data, rows, pool);
  if (!split.found ||
      !(split.improvement > options_.min_impurity_decrease)) {
    return tree.AddLeaf(majority, std::move(hist));
  }

  // Partition by comparing against the left-side maximum value rather than
  // the midpoint threshold, so the routing is exact regardless of how the
  // midpoint rounds.
  std::vector<size_t> left_rows;
  std::vector<size_t> right_rows;
  left_rows.reserve(rows.size());
  right_rows.reserve(rows.size());
  const auto& col = data.Column(split.attribute);
  for (size_t r : rows) {
    (col[r] <= split.left_max ? left_rows : right_rows).push_back(r);
  }
  POPP_CHECK(!left_rows.empty() && !right_rows.empty());
  rows.clear();
  rows.shrink_to_fit();

  const NodeId left = BuildNode(data, left_rows, depth + 1, tree, pool);
  const NodeId right = BuildNode(data, right_rows, depth + 1, tree, pool);
  return tree.AddInternal(split.attribute, split.threshold, left, right,
                          std::move(hist));
}

namespace {

constexpr size_t kNoRecord = static_cast<size_t>(-1);
constexpr uint32_t kNoSlot = static_cast<uint32_t>(-1);
constexpr uint32_t kNoOrdinal = static_cast<uint32_t>(-1);

/// Frontier cutover: a child whose slice has at most this many rows
/// leaves the frontier and is solved depth-first in thread-local scratch
/// at the end of its level. The deep tail of a tree is hundreds of
/// thousands of tiny nodes; pushing each through the level pipeline costs
/// a task, a summary-pool touch and a buffer stream per level, while the
/// scratch solver keeps the whole subtree (2 x attrs x 2048 packed
/// elements) cache-resident and allocation-free. The cutover is a pure
/// function of the slice size — independent of thread count and
/// scheduling — and the solver runs the same summary, scan and stable
/// partition logic the frontier does, so the emitted tree is bit for bit
/// the one the frontier (and kResort) would build.
constexpr size_t kSubtreeRows = 2048;

/// One node of the breadth-first build graph. Records are created level by
/// level; children are record indices. The finished graph is emitted into
/// the DecisionTree arena in the recursive builder's exact post-order, so
/// node ids — and therefore serialized trees and golden fixtures — are
/// unchanged by the frontier rework.
struct BuildRecord {
  NodeSlice slice;
  size_t depth = 0;
  std::vector<uint64_t> hist;
  size_t parent = kNoRecord;  ///< record index of the splitting parent
  ClassId majority = kNoClass;
  bool is_leaf = false;
  SplitDecision split;
  size_t left = 0;   ///< record index (internal nodes only)
  size_t right = 0;  ///< record index (internal nodes only)
  uint32_t sum_slot = kNoSlot;    ///< summary-pool slot while open
  uint32_t ordinal = kNoOrdinal;  ///< index in the level's open list
};

/// One summarization work unit of a level: scan `scan_rec`'s slices
/// directly, and (optionally) derive its sibling `sub_rec`'s summaries by
/// subtracting the scan from their parent's stored summaries. The scanned
/// record is always the *smaller* sibling, so the per-level row traffic of
/// the summary phase is the sum of the minority sides — on the lopsided
/// splits deep trees are made of, a small fraction of the frontier.
struct SumTask {
  size_t scan_rec = kNoRecord;
  uint32_t scan_slot = kNoSlot;
  uint32_t scan_ordinal = kNoOrdinal;  ///< kNoOrdinal: subtraction feed only
  size_t sub_rec = kNoRecord;
  uint32_t parent_slot = kNoSlot;
};

/// Depth cap of the solver's per-depth summary slots: nodes deeper than
/// this share one overflow slot and scan their summaries directly (their
/// slot is dead once their own scan is done, so sharing is safe). This
/// bounds scratch memory on pathological chain-shaped subtrees without
/// touching the realistic case — a 2048-row subtree of a balanced tree
/// is ~11 levels deep.
constexpr size_t kSubtreeSumDepth = 64;

/// Per-thread scratch of the subtree solver: the subtree's packed
/// elements (two ping-pong copies, attribute-major), a task-private row
/// bitmask for its side marks, per-depth summary slots (the parent's
/// summaries must outlive both children's derivations — see the
/// subtraction scheme in the solver), a scratch summary for the smaller
/// sibling's scan, and per-node decision buffers. `sums`/`small_sums`
/// are parallel per-depth arrays: a split at solver depth d stores the
/// big child's summaries in sums[d+1] and the small child's in
/// small_sums[d+1]; the big child's entire subtree only ever writes
/// depths >= d+2 (the big child itself enters with summaries in hand
/// and never entry-scans), so both slots stay live until their owners
/// consume them. One scratch per thread serves every subtree task;
/// `mask` upholds the invariant that it is all-clear between splits, so
/// no per-split reset pass is ever needed.
struct SubtreeScratch {
  std::vector<uint64_t> buf[2];
  std::vector<uint64_t> mask;
  std::vector<std::vector<AttributeSummary>> sums;
  std::vector<std::vector<AttributeSummary>> small_sums;
  AttributeSummary sibling;
  std::vector<SplitDecision> locals;
  std::vector<uint64_t> mark_hist;
};

SubtreeScratch& LocalSubtreeScratch() {
  thread_local SubtreeScratch scratch;
  return scratch;
}

}  // namespace

void DecisionTreeBuilder::BuildFrontier(const Dataset& data, ThreadPool* pool,
                                        DecisionTree& tree,
                                        BuildStats* stats) const {
  using Clock = std::chrono::steady_clock;
  BuildStats local_stats;

  auto t0 = Clock::now();
  ColumnarPartitions parts;
  parts.Init(data, pool);
  local_stats.sort_s += SecondsSince(t0);

  const size_t num_attrs = data.NumAttributes();
  const size_t num_classes = data.NumClasses();
  std::vector<BuildRecord> records;
  records.emplace_back();
  records[0].slice = NodeSlice{0, data.NumRows()};
  parts.NodeHistogram(records[0].slice, records[0].hist);
  std::vector<size_t> frontier{0};

  // Pool of per-node summary sets (one AttributeSummary per attribute). A
  // slot is claimed when a record opens, read one level later as the
  // subtraction source for its children, then recycled — so the pool's
  // size tracks two consecutive frontiers, not the whole tree, and every
  // summary's vector capacity is reused across nodes.
  std::vector<std::vector<AttributeSummary>> sum_pool;
  std::vector<uint32_t> free_slots;
  const auto alloc_slot = [&]() -> uint32_t {
    if (!free_slots.empty()) {
      const uint32_t slot = free_slots.back();
      free_slots.pop_back();
      return slot;
    }
    sum_pool.emplace_back(num_attrs);
    return static_cast<uint32_t>(sum_pool.size() - 1);
  };

  // Per-level work lists; hoisted so their capacity survives the loop.
  std::vector<size_t> open;            // records needing a split search
  std::vector<size_t> splitting;       // records whose split was accepted
  std::vector<size_t> prev_splitting;  // last level's splitting parents
  std::vector<SumTask> tasks;
  std::vector<uint32_t> temp_slots;
  std::vector<SplitDecision> locals;
  std::vector<size_t> left_counts;
  std::vector<uint8_t> marked_left;
  std::vector<std::vector<uint64_t>> mark_hists;
  std::vector<size_t> subtree_roots;
  std::vector<std::vector<BuildRecord>> arenas;

  while (!frontier.empty()) {
    ++local_stats.levels;

    // Phase 1 — the leaf gate. Every record already carries its class
    // histogram — the root's from one scan, children's from the mark
    // phase — so the gate is a serial O(classes)-per-node pass, identical
    // in order and criteria to the recursive builder.
    t0 = Clock::now();
    open.clear();
    subtree_roots.clear();
    for (size_t id : frontier) {
      BuildRecord& rec = records[id];
      rec.majority = MajorityClass(rec.hist);
      if (IsPure(rec.hist) || rec.slice.size() < options_.min_split_size ||
          rec.depth >= options_.max_depth) {
        rec.is_leaf = true;
      } else {
        rec.ordinal = static_cast<uint32_t>(open.size());
        rec.sum_slot = alloc_slot();
        open.push_back(id);
      }
    }

    // Phase 2a — plan the level's summarization. Each sibling pair is one
    // task: scan the smaller child's slices, derive the larger child's
    // summaries by exact integer subtraction from the parent's stored
    // set. Subtraction walks O(parent distinct x classes) state instead
    // of the sibling's rows, so a node that splits off a sliver pays for
    // the sliver, not for itself — the difference between O(rows) and
    // O(minority rows) per level on chain-shaped trees. When the smaller
    // child is already a leaf it is still scanned, into a scratch slot,
    // purely as the subtraction operand. Ties in size pick the left
    // child, so task shapes are a pure function of the level's slices.
    tasks.clear();
    temp_slots.clear();
    for (size_t id : open) {
      const BuildRecord& rec = records[id];
      if (rec.parent == kNoRecord) {
        // The root: no parent to subtract from, scan directly.
        tasks.push_back(SumTask{id, rec.sum_slot, rec.ordinal});
        continue;
      }
      const BuildRecord& par = records[rec.parent];
      const size_t min_child =
          records[par.left].slice.size() <= records[par.right].slice.size()
              ? par.left
              : par.right;
      const size_t maj_child = min_child == par.left ? par.right : par.left;
      if (id == min_child) {
        SumTask task{id, rec.sum_slot, rec.ordinal};
        // A sibling participates only while open on this level; a leaf or
        // a subtree-solved sibling needs no summaries.
        if (records[maj_child].ordinal != kNoOrdinal) {
          task.sub_rec = maj_child;
          task.parent_slot = par.sum_slot;
        }
        tasks.push_back(task);
      } else if (records[min_child].ordinal == kNoOrdinal) {
        // The smaller sibling is a leaf or was handed to the subtree
        // solver: scan it into a scratch slot purely as the subtraction
        // operand (its slice is still intact in the front buffer).
        const uint32_t scratch = alloc_slot();
        temp_slots.push_back(scratch);
        tasks.push_back(SumTask{min_child, scratch, kNoOrdinal, id,
                                par.sum_slot});
      }
      // else: this is the larger sibling of an open smaller one — its
      // summaries are produced by the sibling's task.
    }

    // Phase 2b — summarize and scan, one work item per (task, attribute).
    // Every item writes only its own summary slots and SplitDecision
    // slots; the cross-attribute merge below runs serially in attribute
    // order per node, so the decision — including every exact-tie
    // resolution — is bit-identical to the serial scan.
    locals.assign(open.size() * num_attrs, SplitDecision{});
    ParallelFor(pool, tasks.size() * num_attrs, [&](size_t w) {
      const SumTask& task = tasks[w / num_attrs];
      const size_t attr = w % num_attrs;
      AttributeSummary& scanned = sum_pool[task.scan_slot][attr];
      bool scanned_filled = false;
      if (task.scan_ordinal != kNoOrdinal) {
        parts.NodeSummary(attr, records[task.scan_rec].slice, scanned);
        scanned_filled = true;
        ScanAttribute(attr, scanned, records[task.scan_rec].hist,
                      locals[task.scan_ordinal * num_attrs + attr]);
      }
      if (task.sub_rec != kNoRecord) {
        const BuildRecord& sub = records[task.sub_rec];
        const AttributeSummary& parent_sum = sum_pool[task.parent_slot][attr];
        AttributeSummary& derived = sum_pool[sub.sum_slot][attr];
        const BuildRecord& par = records[sub.parent];
        if (attr == par.split.attribute) {
          // On the attribute the parent split on, this child is exactly
          // a value-index range of the parent's summary ([0, boundary)
          // left, [boundary, n) right) — copy the range, no scan, no
          // subtraction (see AssignRange).
          const size_t b = par.split.boundary_index;
          const bool sub_is_left = par.left == task.sub_rec;
          derived.AssignRange(parent_sum, sub_is_left ? 0 : b,
                              sub_is_left ? b : parent_sum.NumDistinct());
        } else if (sub.slice.size() > 2 * parent_sum.NumDistinct()) {
          // Cost pivot: subtraction walks the parent's distinct values,
          // a direct scan walks the sibling's rows — take whichever is
          // smaller. The pivot reads only sizes, so it is deterministic,
          // and both paths produce field-identical summaries, so the
          // choice never shows in the tree.
          if (!scanned_filled) {
            parts.NodeSummary(attr, records[task.scan_rec].slice, scanned);
          }
          derived.AssignDifference(parent_sum, scanned);
        } else {
          parts.NodeSummary(attr, sub.slice, derived);
        }
        ScanAttribute(attr, derived, sub.hist,
                      locals[sub.ordinal * num_attrs + attr]);
      }
    });

    // The parents' summaries fed their last subtraction; recycle them
    // along with the level's scratch slots.
    for (size_t id : prev_splitting) {
      free_slots.push_back(records[id].sum_slot);
      records[id].sum_slot = kNoSlot;
    }
    for (uint32_t slot : temp_slots) free_slots.push_back(slot);

    // Phase 2c — merge and the improvement gate.
    splitting.clear();
    for (size_t i = 0; i < open.size(); ++i) {
      BuildRecord& rec = records[open[i]];
      const SplitDecision best =
          MergeAttributeBests(&locals[i * num_attrs], num_attrs);
      if (!best.found ||
          !(best.improvement > options_.min_impurity_decrease)) {
        rec.is_leaf = true;
        free_slots.push_back(rec.sum_slot);
        rec.sum_slot = kNoSlot;
      } else {
        rec.split = best;
        splitting.push_back(open[i]);
      }
    }
    local_stats.scan_s += SecondsSince(t0);

    // Phase 3 — partition. Marking writes each splitting node's smaller
    // side into the shared mask and collects that side's class histogram
    // in the same pass (disjoint rows, so nodes mark in parallel); the
    // ParallelFor join is the barrier that orders every mark before every
    // repartition.
    t0 = Clock::now();
    left_counts.assign(splitting.size(), 0);
    marked_left.assign(splitting.size(), 0);
    mark_hists.resize(splitting.size());
    parts.ResetSideMask();
    ParallelFor(pool, splitting.size(), [&](size_t i) {
      const BuildRecord& rec = records[splitting[i]];
      const ColumnarPartitions::MarkResult mark = parts.MarkSideRows(
          rec.split.attribute, rec.slice, rec.split.left_max, mark_hists[i]);
      left_counts[i] = mark.left_n;
      marked_left[i] = mark.marked_left ? 1 : 0;
    });

    // Child scheduling is serial and in frontier order, so record indices
    // — and with them the emission order — are scheduling-independent.
    // Child histograms fall out of the mark pass: the marked (smaller)
    // side's directly, its sibling's by exact integer subtraction from
    // the parent's.
    std::vector<size_t> next;
    next.reserve(splitting.size() * 2);
    for (size_t i = 0; i < splitting.size(); ++i) {
      const size_t id = splitting[i];
      const size_t left_n = left_counts[i];
      const NodeSlice slice = records[id].slice;
      const size_t depth = records[id].depth;
      POPP_CHECK(left_n > 0 && left_n < slice.size());
      const size_t mid = slice.begin + left_n;

      std::vector<uint64_t> left_hist;
      std::vector<uint64_t> right_hist;
      if (marked_left[i] != 0) {
        left_hist = std::move(mark_hists[i]);
        right_hist.resize(num_classes);
        for (size_t c = 0; c < num_classes; ++c) {
          right_hist[c] = records[id].hist[c] - left_hist[c];
        }
      } else {
        right_hist = std::move(mark_hists[i]);
        left_hist.resize(num_classes);
        for (size_t c = 0; c < num_classes; ++c) {
          left_hist[c] = records[id].hist[c] - right_hist[c];
        }
      }
      const auto add_child = [&](NodeSlice child_slice,
                                 std::vector<uint64_t>&& child_hist) {
        const size_t child = records.size();
        // Small subtrees leave the frontier: solved depth-first in thread
        // scratch at the end of this level (see kSubtreeRows).
        if (child_slice.size() <= kSubtreeRows) {
          subtree_roots.push_back(child);
        } else {
          next.push_back(child);
        }
        records.emplace_back();
        records[child].slice = child_slice;
        records[child].depth = depth + 1;
        records[child].hist = std::move(child_hist);
        records[child].parent = id;
        return child;
      };
      // add_child grows `records`; index it afresh afterwards.
      const size_t left_child =
          add_child(NodeSlice{slice.begin, mid}, std::move(left_hist));
      const size_t right_child =
          add_child(NodeSlice{mid, slice.end}, std::move(right_hist));
      records[id].left = left_child;
      records[id].right = right_child;
    }

    // Stream every splitting node's slices into the back buffers: the
    // split attribute is already partitioned by sortedness (straight
    // copy), every other attribute partitions by the side mask. Leaf
    // slices are never copied — their back-buffer region is dead. One
    // swap then publishes the level.
    ParallelFor(pool, splitting.size() * num_attrs, [&](size_t w) {
      const size_t i = w / num_attrs;
      const size_t attr = w % num_attrs;
      const BuildRecord& rec = records[splitting[i]];
      if (attr == rec.split.attribute) {
        parts.CopySlice(attr, rec.slice);
      } else {
        parts.Repartition(attr, rec.slice, left_counts[i],
                          marked_left[i] != 0);
      }
    });
    parts.FinishLevel();
    local_stats.partition_s += SecondsSince(t0);

    // Subtree solving — children at or below the kSubtreeRows cutover,
    // collected above, are solved to completion here. Each task copies
    // its slices out of the (freshly published) front buffers into
    // thread scratch and recurses depth-first, appending nodes to a
    // task-local arena; arenas are spliced into `records` serially in
    // child-creation order, so record numbering stays deterministic.
    if (!subtree_roots.empty()) {
      t0 = Clock::now();
      arenas.resize(subtree_roots.size());
      const size_t mask_words = (parts.NumRows() + 63) / 64;
      ParallelFor(pool, subtree_roots.size(), [&](size_t task) {
        SubtreeScratch& sc = LocalSubtreeScratch();
        std::vector<BuildRecord>& arena = arenas[task];
        BuildRecord& root = records[subtree_roots[task]];
        const size_t s = root.slice.size();
        sc.buf[0].resize(num_attrs * s);
        sc.buf[1].resize(num_attrs * s);
        if (sc.mask.size() != mask_words) sc.mask.assign(mask_words, 0);
        sc.locals.resize(num_attrs);
        for (size_t attr = 0; attr < num_attrs; ++attr) {
          std::memcpy(sc.buf[0].data() + attr * s,
                      parts.FrontData(attr) + root.slice.begin,
                      s * sizeof(uint64_t));
        }
        arena.clear();
        arena.push_back(std::move(root));  // moved back at the splice

        // Depth-first solve of arena[rec_id], whose rows live at
        // [lo, hi) of every attribute's sc.buf[cur] lane. The leaf
        // gates, split search, summary subtraction, side marking and
        // stable partition are the frontier's own, run on the scratch
        // copies. `sdepth` is the subtree-local depth (the summary slot
        // index); `have_sums` says the parent already stored this
        // node's summaries — in small_sums if the node was the split's
        // smaller child (`sum_side`), in sums otherwise.
        const auto solve = [&](auto&& self, size_t rec_id, size_t lo,
                               size_t hi, size_t cur, size_t sdepth,
                               bool have_sums, size_t sum_side) -> void {
          const size_t slot = std::min(sdepth, kSubtreeSumDepth);
          {
            BuildRecord& rec = arena[rec_id];
            rec.majority = MajorityClass(rec.hist);
            if (IsPure(rec.hist) ||
                hi - lo < options_.min_split_size ||
                rec.depth >= options_.max_depth) {
              rec.is_leaf = true;
              return;
            }
            auto& sums = sum_side ? sc.small_sums : sc.sums;
            if (slot >= sums.size()) sums.resize(slot + 1);
            if (sums[slot].size() != num_attrs) {
              sums[slot].resize(num_attrs);
            }
            for (size_t attr = 0; attr < num_attrs; ++attr) {
              sc.locals[attr] = SplitDecision{};
              if (!have_sums) {
                sums[slot][attr].AssignFromBinnedSlice(
                    sc.buf[cur].data() + attr * s + lo, hi - lo,
                    parts.BinValues(attr), num_classes);
              }
              ScanAttribute(attr, sums[slot][attr], rec.hist,
                            sc.locals[attr]);
            }
            const SplitDecision best =
                MergeAttributeBests(sc.locals.data(), num_attrs);
            if (!best.found ||
                !(best.improvement > options_.min_impurity_decrease)) {
              rec.is_leaf = true;
              return;
            }
            rec.split = best;
          }
          const SplitDecision split = arena[rec_id].split;
          const size_t depth = arena[rec_id].depth;

          // Boundary position on the split attribute (value-sorted, so
          // one binary search — same routing as MarkSideRows).
          const uint64_t* se = sc.buf[cur].data() + split.attribute * s;
          const AttrValue* bins = parts.BinValues(split.attribute);
          const uint64_t boundary_bin = static_cast<uint64_t>(
              std::upper_bound(bins,
                               bins + parts.NumBins(split.attribute),
                               split.left_max) -
              bins);
          const size_t split_pos = static_cast<size_t>(
              std::lower_bound(se + lo, se + hi,
                               boundary_bin << kElemBinShift) -
              se);
          const size_t left_n = split_pos - lo;
          POPP_CHECK(left_n > 0 && left_n < hi - lo);
          const bool m_left = left_n <= hi - split_pos;
          const size_t mb = m_left ? lo : split_pos;
          const size_t me = m_left ? split_pos : hi;
          sc.mark_hist.assign(num_classes, 0);
          for (size_t i = mb; i < me; ++i) {
            sc.mark_hist[static_cast<size_t>(ElemLabel(se[i]))]++;
          }
          std::vector<uint64_t> left_hist;
          std::vector<uint64_t> right_hist;
          {
            const std::vector<uint64_t>& ph = arena[rec_id].hist;
            if (m_left) {
              left_hist = sc.mark_hist;
              right_hist.resize(num_classes);
              for (size_t c = 0; c < num_classes; ++c) {
                right_hist[c] = ph[c] - left_hist[c];
              }
            } else {
              right_hist = sc.mark_hist;
              left_hist.resize(num_classes);
              for (size_t c = 0; c < num_classes; ++c) {
                left_hist[c] = ph[c] - right_hist[c];
              }
            }
          }

          // The entry gate, applied one level early: a child that is
          // certain to become a leaf never reads its rows again, so when
          // both children are (and only then) the whole partition pass —
          // the bulk of the deep tail's cost — is skipped. A child that
          // passes these gates may still be leafed by its own split
          // search; that is decided in its recursive call as usual.
          const bool left_leaf = IsPure(left_hist) ||
                                 left_n < options_.min_split_size ||
                                 depth + 1 >= options_.max_depth;
          const bool right_leaf = IsPure(right_hist) ||
                                  hi - split_pos < options_.min_split_size ||
                                  depth + 1 >= options_.max_depth;

          if (!(left_leaf && right_leaf)) {
            // Mark the smaller side's rows, then stably partition every
            // lane into the other buffer; the split attribute is already
            // partitioned by sortedness.
            for (size_t i = mb; i < me; ++i) {
              const uint32_t r = ElemRow(se[i]);
              sc.mask[r >> 6] |= 1ull << (r & 63);
            }
            const size_t nxt = cur ^ 1;
            for (size_t attr = 0; attr < num_attrs; ++attr) {
              const uint64_t* src = sc.buf[cur].data() + attr * s;
              uint64_t* dst = sc.buf[nxt].data() + attr * s;
              if (attr == split.attribute) {
                std::memcpy(dst + lo, src + lo,
                            (hi - lo) * sizeof(uint64_t));
                continue;
              }
              size_t cursor[2] = {lo, lo + left_n};
              const size_t flip = m_left ? 1 : 0;
              for (size_t i = lo; i < hi; ++i) {
                const uint64_t e = src[i];
                const uint32_t r = ElemRow(e);
                const size_t marked = (sc.mask[r >> 6] >> (r & 63)) & 1;
                dst[cursor[marked ^ flip]++] = e;
              }
              POPP_CHECK_MSG(
                  cursor[0] == lo + left_n && cursor[1] == hi,
                  "SolveSubtree: side mask disagrees with the left count");
            }
            // Restore the all-clear mask invariant (se is still intact).
            for (size_t i = mb; i < me; ++i) {
              const uint32_t r = ElemRow(se[i]);
              sc.mask[r >> 6] &= ~(1ull << (r & 63));
            }
          }

          const size_t left_id = arena.size();
          arena.emplace_back();
          {
            BuildRecord& ch = arena.back();
            ch.slice = NodeSlice{lo, lo + left_n};  // scratch-relative
            ch.depth = depth + 1;
            ch.hist = std::move(left_hist);
            ch.parent = rec_id;
            if (left_leaf) {
              ch.is_leaf = true;
              ch.majority = MajorityClass(ch.hist);
            }
          }
          const size_t right_id = arena.size();
          arena.emplace_back();
          {
            BuildRecord& ch = arena.back();
            ch.slice = NodeSlice{lo + left_n, hi};  // scratch-relative
            ch.depth = depth + 1;
            ch.hist = std::move(right_hist);
            ch.parent = rec_id;
            if (right_leaf) {
              ch.is_leaf = true;
              ch.majority = MajorityClass(ch.hist);
            }
          }
          arena[rec_id].left = left_id;
          arena[rec_id].right = right_id;
          const size_t nxt = cur ^ 1;

          // Summary subtraction, exactly as the frontier's phase 2:
          // scan only the smaller child (ties pick the left), derive
          // the larger child's summaries from the parent's — per attr,
          // whichever of subtraction and a direct scan reads less state
          // (the same size-only pivot, so the choice is deterministic,
          // and both paths produce field-identical summaries). The
          // small child's scan is stored, not discarded: it lands in
          // small_sums[sdepth + 1], the big child's in sums[sdepth + 1],
          // so NEITHER child ever rescans at entry. The big child
          // recurses first; its subtree writes only depths >= sdepth + 2
          // (it enters with summaries in hand), so the small child's
          // slot is still live when its own recursion finally runs.
          // Recursion order only orders arena ids, which the structural
          // post-order emission never reads.
          const size_t right_n = hi - split_pos;
          const bool small_is_left = left_n <= right_n;
          const size_t big_id = small_is_left ? right_id : left_id;
          const size_t small_id = small_is_left ? left_id : right_id;
          const bool big_leaf = small_is_left ? right_leaf : left_leaf;
          const bool small_leaf = small_is_left ? left_leaf : right_leaf;
          const size_t big_lo = small_is_left ? lo + left_n : lo;
          const size_t big_hi = small_is_left ? hi : lo + left_n;
          const size_t small_lo = small_is_left ? lo : lo + left_n;
          const size_t small_hi = small_is_left ? lo + left_n : hi;
          bool big_have_sums = false;
          bool small_have_sums = false;
          if (sdepth + 1 < kSubtreeSumDepth &&
              !(big_leaf && small_leaf)) {
            if (sdepth + 2 > sc.sums.size()) sc.sums.resize(sdepth + 2);
            if (sc.sums[sdepth + 1].size() != num_attrs) {
              sc.sums[sdepth + 1].resize(num_attrs);
            }
            if (sdepth + 2 > sc.small_sums.size()) {
              sc.small_sums.resize(sdepth + 2);
            }
            if (sc.small_sums[sdepth + 1].size() != num_attrs) {
              sc.small_sums[sdepth + 1].resize(num_attrs);
            }
            for (size_t attr = 0; attr < num_attrs; ++attr) {
              // On the split attribute both children are value-index
              // ranges of the parent's summary — copy the range, no
              // scan, no subtraction (see AssignRange).
              if (attr == split.attribute) {
                const AttributeSummary& parent_sum =
                    (sum_side ? sc.small_sums : sc.sums)[slot][attr];
                const size_t b = split.boundary_index;
                const size_t nd = parent_sum.NumDistinct();
                if (!small_leaf) {
                  sc.small_sums[sdepth + 1][attr].AssignRange(
                      parent_sum, small_is_left ? 0 : b,
                      small_is_left ? b : nd);
                }
                if (!big_leaf) {
                  sc.sums[sdepth + 1][attr].AssignRange(
                      parent_sum, small_is_left ? b : 0,
                      small_is_left ? nd : b);
                }
                continue;
              }
              const uint64_t* lane = sc.buf[nxt].data() + attr * s;
              // A leaf small child never reads summaries, so its scan
              // (needed only when the big side subtracts) goes to the
              // throwaway `sibling`; otherwise it fills the slot the
              // small child will enter with.
              AttributeSummary& small_sum =
                  small_leaf ? sc.sibling : sc.small_sums[sdepth + 1][attr];
              if (!small_leaf) {
                small_sum.AssignFromBinnedSlice(
                    lane + small_lo, small_hi - small_lo,
                    parts.BinValues(attr), num_classes);
              }
              if (!big_leaf) {
                const AttributeSummary& parent_sum =
                    (sum_side ? sc.small_sums : sc.sums)[slot][attr];
                AttributeSummary& derived = sc.sums[sdepth + 1][attr];
                if (big_hi - big_lo > 2 * parent_sum.NumDistinct()) {
                  if (small_leaf) {
                    small_sum.AssignFromBinnedSlice(
                        lane + small_lo, small_hi - small_lo,
                        parts.BinValues(attr), num_classes);
                  }
                  derived.AssignDifference(parent_sum, small_sum);
                } else {
                  derived.AssignFromBinnedSlice(lane + big_lo,
                                                big_hi - big_lo,
                                                parts.BinValues(attr),
                                                num_classes);
                }
              }
            }
            big_have_sums = !big_leaf;
            small_have_sums = !small_leaf;
          }
          if (!big_leaf) {
            self(self, big_id, big_lo, big_hi, nxt, sdepth + 1,
                 big_have_sums, /*sum_side=*/0);
          }
          if (!small_leaf) {
            self(self, small_id, small_lo, small_hi, nxt, sdepth + 1,
                 small_have_sums, /*sum_side=*/1);
          }
        };
        solve(solve, 0, 0, s, 0, 0, false, /*sum_side=*/0);
      });

      // Serial splice in child-creation order: arena-local child indices
      // become records indices (local id L >= 1 lands at base + L - 1;
      // local 0 is the original record, restored in place).
      size_t spliced = 0;
      for (const std::vector<BuildRecord>& arena : arenas) {
        spliced += arena.size() - 1;
      }
      records.reserve(records.size() + spliced);
      for (size_t task = 0; task < subtree_roots.size(); ++task) {
        std::vector<BuildRecord>& arena = arenas[task];
        const size_t base = records.size();
        for (BuildRecord& rec : arena) {
          if (!rec.is_leaf) {
            rec.left = base + rec.left - 1;
            rec.right = base + rec.right - 1;
          }
        }
        records[subtree_roots[task]] = std::move(arena[0]);
        for (size_t j = 1; j < arena.size(); ++j) {
          records.push_back(std::move(arena[j]));
        }
      }
      local_stats.subtree_s += SecondsSince(t0);
    }

    std::swap(prev_splitting, splitting);
    frontier = std::move(next);
  }

  // Emission: iterative post-order — left subtree fully, then right, then
  // the parent — which is exactly the recursive builder's AddLeaf /
  // AddInternal call sequence, so node ids and serialized bytes match.
  t0 = Clock::now();
  struct Frame {
    size_t rec;
    uint8_t stage;
  };
  std::vector<NodeId> emitted(records.size(), kNoNode);
  tree.Reserve(records.size());
  std::vector<Frame> stack;
  stack.push_back(Frame{0, 0});
  while (!stack.empty()) {
    const size_t id = stack.back().rec;
    BuildRecord& rec = records[id];
    if (rec.is_leaf) {
      emitted[id] = tree.AddLeaf(rec.majority, std::move(rec.hist));
      stack.pop_back();
      continue;
    }
    switch (stack.back().stage++) {
      case 0:
        stack.push_back(Frame{rec.left, 0});
        break;
      case 1:
        stack.push_back(Frame{rec.right, 0});
        break;
      default:
        emitted[id] = tree.AddInternal(rec.split.attribute,
                                       rec.split.threshold, emitted[rec.left],
                                       emitted[rec.right],
                                       std::move(rec.hist));
        stack.pop_back();
        break;
    }
  }
  tree.SetRoot(emitted[0]);
  local_stats.emit_s += SecondsSince(t0);
  local_stats.nodes = records.size();
  if (stats != nullptr) *stats = local_stats;
}

DecisionTree DecisionTreeBuilder::Build(const Dataset& data) const {
  return Build(data, nullptr);
}

DecisionTree DecisionTreeBuilder::Build(const Dataset& data,
                                        BuildStats* stats) const {
  POPP_CHECK_MSG(data.NumRows() > 0, "cannot build a tree from 0 rows");
  POPP_CHECK_MSG(data.NumClasses() > 0, "dataset has no classes");
  if (stats != nullptr) *stats = BuildStats{};
  DecisionTree tree;

  if (options_.algorithm == BuildOptions::Algorithm::kFrontier) {
    // The frontier engine parallelizes across the level's (node ×
    // attribute) grid, so it profits from a pool even for one attribute.
    std::unique_ptr<ThreadPool> pool;
    if (!exec_.IsSerial()) {
      pool = std::make_unique<ThreadPool>(exec_.ResolvedThreads());
    }
    BuildFrontier(data, pool.get(), tree, stats);
    return tree;
  }

  // One pool for the whole build; nodes too small to benefit skip it.
  std::unique_ptr<ThreadPool> pool;
  if (!exec_.IsSerial() && data.NumAttributes() >= 2) {
    pool = std::make_unique<ThreadPool>(
        std::min(exec_.ResolvedThreads(), data.NumAttributes()));
  }

  std::vector<size_t> rows(data.NumRows());
  for (size_t r = 0; r < rows.size(); ++r) rows[r] = r;
  tree.SetRoot(BuildNode(data, rows, 0, tree, pool.get()));
  return tree;
}

}  // namespace popp
