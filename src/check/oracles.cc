#include "check/oracles.h"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <set>
#include <sstream>
#include <thread>

#include "data/cols.h"
#include "data/csv.h"
#include "fault/failpoint.h"
#include "fault/file.h"
#include "serve/client.h"
#include "serve/server.h"
#include "shard/meta_manifest.h"
#include "shard/pipeline.h"
#include "stream/manifest.h"
#include "util/crc64.h"
#include "transform/compiled.h"
#include "data/summary.h"
#include "parallel/exec_policy.h"
#include "risk/trials.h"
#include "stream/chunk_io.h"
#include "stream/cols_io.h"
#include "stream/streaming_custodian.h"
#include "transform/serialize.h"
#include "transform/tree_decode.h"
#include "tree/compare.h"
#include "tree/label_runs.h"
#include "tree/prune.h"
#include "tree/serialize.h"
#include "util/rng.h"

namespace popp::check {
namespace {

/// Relative tolerance of the decode round-trip (the transform arithmetic
/// is a chain of affine/shape maps; exactness holds only up to rounding).
constexpr double kDecodeTolerance = 1e-7;

/// The label-run decomposition a released attribute must exhibit: the
/// original sorted projection's runs, with the value groups concatenated in
/// reverse for an order-reversing release (stable sorting keeps the
/// within-group tuple order in both spaces, so groups — not tuples — are
/// the reversal unit).
std::vector<LabelRun> ExpectedRuns(const std::vector<ValueLabel>& sorted,
                                   bool anti) {
  std::vector<ClassId> expected;
  expected.reserve(sorted.size());
  if (!anti) {
    expected = ClassString(sorted);
    return ComputeLabelRuns(expected);
  }
  // Collect [begin, end) of each value group, then emit groups in reverse.
  std::vector<std::pair<size_t, size_t>> groups;
  for (size_t i = 0; i < sorted.size();) {
    size_t j = i + 1;
    while (j < sorted.size() && sorted[j].value == sorted[i].value) ++j;
    groups.emplace_back(i, j);
    i = j;
  }
  for (auto it = groups.rbegin(); it != groups.rend(); ++it) {
    for (size_t i = it->first; i < it->second; ++i) {
      expected.push_back(sorted[i].label);
    }
  }
  return ComputeLabelRuns(expected);
}

std::string Describe(const LabelRun& run) {
  std::ostringstream oss;
  oss << "class " << run.label << " x" << run.length();
  return oss.str();
}

/// Which attributes the plan releases order-reversed.
std::vector<bool> AntiMask(const TransformPlan& plan, size_t num_attrs) {
  std::vector<bool> anti(num_attrs);
  for (size_t a = 0; a < num_attrs; ++a) {
    anti[a] = plan.transform(a).global_anti_monotone();
  }
  return anti;
}

/// Negates the masked attributes: the order-reversal of the release as a
/// plain reflection, without any of the plan's value distortion.
Dataset ReflectAttributes(const Dataset& data, const std::vector<bool>& anti) {
  Dataset out(data.schema());
  out.Reserve(data.NumRows());
  std::vector<AttrValue> tuple(data.NumAttributes());
  for (size_t r = 0; r < data.NumRows(); ++r) {
    for (size_t a = 0; a < data.NumAttributes(); ++a) {
      const AttrValue v = data.Value(r, a);
      tuple[a] = anti[a] ? -v : v;
    }
    out.AddRow(tuple, data.Label(r));
  }
  return out;
}

/// Maps a tree built on reflected data back to original space: on masked
/// attributes, `-x <= t` is `x >= -t`, so the threshold negates and the
/// children swap.
void UnreflectThresholds(DecisionTree& tree, const std::vector<bool>& anti) {
  for (NodeId id = 0; id < static_cast<NodeId>(tree.NumNodes()); ++id) {
    auto& n = tree.mutable_node(id);
    if (!n.is_leaf && anti[n.attribute]) {
      n.threshold = -n.threshold;
      std::swap(n.left, n.right);
    }
  }
}

/// Bit-level double equality: stricter than ==, distinguishes -0.0 from
/// 0.0 and treats equal NaN payloads as equal — exactly the "same bytes"
/// contract the compiled kernels promise.
bool BitEqual(double a, double b) {
  uint64_t ua, ub;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

/// The compiled-vs-interpreted probe set of one attribute: active-domain
/// values, midpoints between neighbors (non-integral, so they bypass the
/// LUT), piece-gap interiors (the bridge branch), and out-of-hull offsets
/// on both sides (integral and fractional).
std::vector<AttrValue> CompiledProbes(const AttributeSummary& summary,
                                      const PiecewiseTransform& t) {
  std::vector<AttrValue> probes;
  const auto& vals = summary.values();
  probes.reserve(2 * vals.size() + 2 * t.NumPieces() + 8);
  for (size_t i = 0; i < vals.size(); ++i) {
    probes.push_back(vals[i]);
    if (i + 1 < vals.size()) {
      probes.push_back(0.5 * (vals[i] + vals[i + 1]));
    }
  }
  const AttrValue lo = t.piece(0).domain_lo;
  const AttrValue hi = t.piece(t.NumPieces() - 1).domain_hi;
  for (AttrValue x : {lo - 2.0, lo - 0.75, lo, hi, hi + 0.75, hi + 2.0}) {
    probes.push_back(x);
  }
  for (size_t d = 0; d + 1 < t.NumPieces(); ++d) {
    const AttrValue gl = t.piece(d).domain_hi;
    const AttrValue gr = t.piece(d + 1).domain_lo;
    if (gr > gl) {
      probes.push_back(gl + 0.25 * (gr - gl));
      probes.push_back(gl + 0.75 * (gr - gl));
    }
  }
  return probes;
}

}  // namespace

AttrValue ReferenceEncodeClamped(const PiecewiseTransform& t, AttrValue x) {
  return OodEncodeClamped(DomainBounds::Of(t), x,
                          [&t](AttrValue v) { return t.Apply(v); });
}

AttrValue ReferenceEncodeExtended(const PiecewiseTransform& t, AttrValue x) {
  return OodEncodeExtended(DomainBounds::Of(t), x,
                           [&t](AttrValue v) { return t.Apply(v); });
}

OracleResult CheckCompiledVsInterpreted(const Dataset& original,
                                        const TransformPlan& plan,
                                        const Dataset& released,
                                        size_t num_threads) {
  for (size_t a = 0; a < original.NumAttributes(); ++a) {
    const AttributeSummary summary = AttributeSummary::FromDataset(original, a);
    const PiecewiseTransform& t = plan.transform(a);
    const CompiledTransform with_lut = CompiledTransform::Compile(t);
    const CompiledTransform no_lut = CompiledTransform::Compile(
        t, CompiledTransform::CompileOptions{.enable_lut = false});
    const std::pair<const char*, const CompiledTransform*> variants[] = {
        {"lut", &with_lut}, {"search", &no_lut}};
    const std::vector<AttrValue> probes = CompiledProbes(summary, t);
    for (const auto& [vname, ct] : variants) {
      for (AttrValue x : probes) {
        const AttrValue want = t.Apply(x);
        const AttrValue got = ct->Apply(x);
        if (!BitEqual(want, got)) {
          std::ostringstream oss;
          oss << "attr " << a << " [" << vname << "]: Apply(" << FormatCsvCell(x)
              << ") = " << FormatCsvCell(got) << ", interpreted "
              << FormatCsvCell(want);
          return OracleResult::Fail(oss.str());
        }
        const AttrValue iwant = t.Inverse(want);
        const AttrValue igot = ct->Inverse(want);
        if (!BitEqual(iwant, igot)) {
          std::ostringstream oss;
          oss << "attr " << a << " [" << vname << "]: Inverse("
              << FormatCsvCell(want) << ") = " << FormatCsvCell(igot)
              << ", interpreted " << FormatCsvCell(iwant);
          return OracleResult::Fail(oss.str());
        }
        // Shared OOD semantics: compiled bounds vs the references.
        if (!BitEqual(ReferenceEncodeClamped(t, x), ct->EncodeClamped(x)) ||
            !BitEqual(ReferenceEncodeExtended(t, x), ct->EncodeExtended(x))) {
          std::ostringstream oss;
          oss << "attr " << a << " [" << vname
              << "]: OOD encode differs from the reference encoders at "
              << FormatCsvCell(x);
          return OracleResult::Fail(oss.str());
        }
      }
      // Inverse probes beyond the output hull (below-first and gap routing).
      const DomainBounds& b = ct->bounds();
      for (AttrValue y : {b.out_min - 1.5, b.out_min, b.out_max,
                          b.out_max + 1.5,
                          0.5 * (b.out_min + b.out_max)}) {
        if (!BitEqual(t.Inverse(y), ct->Inverse(y))) {
          std::ostringstream oss;
          oss << "attr " << a << " [" << vname << "]: Inverse("
              << FormatCsvCell(y) << ") differs from the interpreted inverse";
          return OracleResult::Fail(oss.str());
        }
      }
    }
  }

  // Plan level: the batched parallel encode must reproduce the interpreted
  // release byte-for-byte at every thread count.
  const CompiledPlan compiled = CompiledPlan::Compile(plan);
  const std::string released_csv = ToCsvString(released);
  for (size_t threads : {size_t{1}, num_threads}) {
    const Dataset encoded =
        compiled.EncodeDataset(original, ExecPolicy{threads});
    if (ToCsvString(encoded) != released_csv) {
      std::ostringstream oss;
      oss << "CompiledPlan::EncodeDataset at " << threads
          << " threads is not byte-identical to the interpreted release";
      return OracleResult::Fail(oss.str());
    }
  }

  // Serialize → parse → compile round trip: the reloaded compiled plan
  // must encode the active domains bit-identically.
  auto reloaded = ParsePlan(SerializePlan(plan));
  if (!reloaded.ok()) {
    return OracleResult::Fail("plan does not re-parse: " +
                              reloaded.status().ToString());
  }
  const CompiledPlan recompiled = CompiledPlan::Compile(reloaded.value());
  for (size_t a = 0; a < original.NumAttributes(); ++a) {
    for (AttrValue v : original.ActiveDomain(a)) {
      if (!BitEqual(plan.Encode(a, v), recompiled.transform(a).Apply(v))) {
        std::ostringstream oss;
        oss << "reloaded compiled plan encodes attr " << a << " value "
            << FormatCsvCell(v) << " differently";
        return OracleResult::Fail(oss.str());
      }
    }
  }
  return OracleResult::Ok();
}

OracleResult CheckEncodeBijective(const Dataset& original,
                                  const TransformPlan& plan) {
  for (size_t a = 0; a < original.NumAttributes(); ++a) {
    std::set<AttrValue> images;
    for (AttrValue v : original.ActiveDomain(a)) {
      const AttrValue y = plan.Encode(a, v);
      if (!std::isfinite(y)) {
        std::ostringstream oss;
        oss << "attr " << a << ": Encode(" << v << ") is not finite";
        return OracleResult::Fail(oss.str());
      }
      if (!images.insert(y).second) {
        std::ostringstream oss;
        oss << "attr " << a << ": Encode(" << v << ") = " << y
            << " collides with another active-domain image";
        return OracleResult::Fail(oss.str());
      }
      const AttrValue back = plan.Decode(a, y);
      if (std::fabs(back - v) >
          kDecodeTolerance * std::max(1.0, std::fabs(v))) {
        std::ostringstream oss;
        oss << "attr " << a << ": Decode(Encode(" << v << ")) = " << back;
        return OracleResult::Fail(oss.str());
      }
    }
  }
  return OracleResult::Ok();
}

OracleResult CheckGlobalInvariant(const Dataset& original,
                                  const TransformPlan& plan) {
  for (size_t a = 0; a < original.NumAttributes(); ++a) {
    const auto summary = AttributeSummary::FromDataset(original, a);
    if (!plan.transform(a).SatisfiesGlobalInvariant(summary)) {
      std::ostringstream oss;
      oss << "attr " << a << ": global "
          << (plan.transform(a).global_anti_monotone() ? "anti-monotone"
                                                       : "monotone")
          << " invariant (Definition 8) violated";
      return OracleResult::Fail(oss.str());
    }
  }
  return OracleResult::Ok();
}

OracleResult CheckLabelRunPreservation(const Dataset& original,
                                       const TransformPlan& plan,
                                       const Dataset& released) {
  for (size_t a = 0; a < original.NumAttributes(); ++a) {
    const bool anti = plan.transform(a).global_anti_monotone();
    const auto expected = ExpectedRuns(original.SortedProjection(a), anti);
    const auto actual = ComputeLabelRuns(
        ClassString(released.SortedProjection(a)));
    if (expected.size() != actual.size()) {
      std::ostringstream oss;
      oss << "attr " << a << ": " << expected.size() << " label runs before, "
          << actual.size() << " after release";
      return OracleResult::Fail(oss.str());
    }
    for (size_t i = 0; i < expected.size(); ++i) {
      if (expected[i].label != actual[i].label ||
          expected[i].length() != actual[i].length()) {
        std::ostringstream oss;
        oss << "attr " << a << " run " << i << ": expected "
            << Describe(expected[i]) << ", got " << Describe(actual[i]);
        return OracleResult::Fail(oss.str());
      }
    }
  }
  return OracleResult::Ok();
}

OracleResult CheckTreeEquivalence(const Dataset& original,
                                  const TransformPlan& plan,
                                  const Dataset& released,
                                  const BuildOptions& build_options,
                                  const std::vector<SplitCriterion>& criteria,
                                  bool pruned) {
  const std::vector<bool> anti_mask = AntiMask(plan, original.NumAttributes());
  bool anti = false;
  for (size_t a = 0; a < original.NumAttributes(); ++a) {
    anti = anti || anti_mask[a];
  }
  for (SplitCriterion criterion : criteria) {
    BuildOptions options = build_options;
    options.criterion = criterion;
    const DecisionTreeBuilder builder(options);
    DecisionTree direct = builder.Build(original);
    const DecisionTree mined = builder.Build(released);
    DecisionTree decoded = DecodeTreeWithData(mined, plan, original);
    if (pruned) {
      direct = PruneTree(direct);
      decoded = PruneTree(decoded);
    }
    const std::string what =
        std::string(pruned ? "pruned " : "") + ToString(criterion);
    if (!anti) {
      // Order-preserving release: bit-exact, ties included.
      if (!ExactlyEqual(direct, decoded)) {
        return OracleResult::Fail(what + ": decoded tree differs — " +
                                  DescribeDifference(direct, decoded));
      }
      if (!pruned && !StructurallyIdentical(direct, mined)) {
        return OracleResult::Fail(what +
                                  ": mined tree structure differs (Theorem 1)");
      }
    } else {
      // Order-reversing release. The miner sees the reversed class-count
      // structure, so exactly-tied splits at class-palindromic nodes
      // resolve to their mirror image — which can change the decision
      // function itself, not just the shape (a fuzzer-found 3-row
      // counterexample: values 205:c2 219:c1 263:c2, where each
      // resolution isolates a different c2 tuple). The sharp invariant is
      // that the decode equals the tree built on the *reflected* original
      // (anti attributes negated) mapped back to original space: the
      // reflection reproduces the released data's class-count structure
      // exactly, mirrored ties included.
      DecisionTree expected =
          builder.Build(ReflectAttributes(original, anti_mask));
      UnreflectThresholds(expected, anti_mask);
      if (pruned) {
        expected = PruneTree(expected);
      }
      // Both trees place thresholds in the same inter-value gaps but with
      // differing rounding; snap both to the canonical midpoints.
      CanonicalizeThresholds(expected, original);
      DecisionTree canon_decoded = decoded;
      CanonicalizeThresholds(canon_decoded, original);
      if (!ExactlyEqual(expected, canon_decoded)) {
        return OracleResult::Fail(
            what + ": decoded tree differs from the reflected build — " +
            DescribeDifference(expected, canon_decoded));
      }
      // No direct-tree comparison here: mirrored tie resolution is not
      // even accuracy-preserving. At a node whose class-count block
      // sequence is a palindrome, isolating either end scores identically,
      // and the two resolutions leave behind *different* row sets whose
      // recursive structure on the other attributes need not mirror — a
      // fuzzer-found 9-row case splits one remainder to purity while the
      // other stalls on min_split_size, so leaf counts and training
      // accuracy legitimately drift. The reflected-build identity above is
      // the full strength of the guarantee.
    }
  }
  return OracleResult::Ok();
}

OracleResult CheckSerializeRoundTrip(const Dataset& original,
                                     const TransformPlan& plan,
                                     const BuildOptions& build_options) {
  const std::string plan_text = SerializePlan(plan);
  auto reloaded = ParsePlan(plan_text);
  if (!reloaded.ok()) {
    return OracleResult::Fail("plan does not re-parse: " +
                              reloaded.status().ToString());
  }
  if (SerializePlan(reloaded.value()) != plan_text) {
    return OracleResult::Fail("plan round-trip is not byte-stable");
  }
  for (size_t a = 0; a < original.NumAttributes(); ++a) {
    for (AttrValue v : original.ActiveDomain(a)) {
      if (plan.Encode(a, v) != reloaded.value().Encode(a, v)) {
        std::ostringstream oss;
        oss << "reloaded plan encodes attr " << a << " value " << v
            << " differently";
        return OracleResult::Fail(oss.str());
      }
    }
  }
  const DecisionTree tree = DecisionTreeBuilder(build_options).Build(original);
  const std::string tree_text = SerializeTree(tree);
  auto retree = ParseTree(tree_text);
  if (!retree.ok()) {
    return OracleResult::Fail("tree does not re-parse: " +
                              retree.status().ToString());
  }
  if (!ExactlyEqual(tree, retree.value())) {
    return OracleResult::Fail("reloaded tree is not ExactlyEqual");
  }
  if (SerializeTree(retree.value()) != tree_text) {
    return OracleResult::Fail("tree round-trip is not byte-stable");
  }
  return OracleResult::Ok();
}

OracleResult CheckParallelDeterminism(
    const Dataset& original, const TransformPlan& plan,
    const Dataset& released, const BuildOptions& build_options,
    uint64_t plan_seed, const PiecewiseOptions& transform_options,
    size_t num_threads) {
  const ExecPolicy parallel{num_threads};

  // Plan selection: a parallel re-derivation from the same seed must
  // serialize to the same bytes as the serial plan in the context.
  Rng plan_rng(plan_seed);
  const TransformPlan parallel_plan =
      TransformPlan::Create(original, transform_options, plan_rng, parallel);
  if (SerializePlan(parallel_plan) != SerializePlan(plan)) {
    std::ostringstream oss;
    oss << "plan serialization differs at " << num_threads << " threads";
    return OracleResult::Fail(oss.str());
  }

  // Tree induction, on both sides of the release.
  const DecisionTreeBuilder serial_builder(build_options);
  const DecisionTreeBuilder parallel_builder(build_options, parallel);
  const std::pair<const char*, const Dataset*> sides[] = {
      {"original", &original}, {"released", &released}};
  for (const auto& side : sides) {
    const DecisionTree serial_tree = serial_builder.Build(*side.second);
    const DecisionTree parallel_tree = parallel_builder.Build(*side.second);
    if (!ExactlyEqual(serial_tree, parallel_tree)) {
      std::ostringstream oss;
      oss << side.first << " tree differs at " << num_threads
          << " threads — " << DescribeDifference(serial_tree, parallel_tree);
      return OracleResult::Fail(oss.str());
    }
  }

  // Risk-trial harness: a small but RNG-heavy battery whose collected
  // vector must match the serial one double-for-double.
  const AttributeSummary summary = AttributeSummary::FromDataset(original, 0);
  const auto trial = [&](Rng& rng) {
    const PiecewiseTransform f =
        PiecewiseTransform::Create(summary, transform_options, rng);
    double acc = rng.Uniform01();
    for (AttrValue v : summary.values()) {
      acc += f.Apply(v);
    }
    return acc;
  };
  constexpr size_t kTrials = 9;
  const uint64_t trial_seed = plan_seed ^ 0x5eedull;
  const std::vector<double> serial_values =
      CollectTrials(kTrials, trial_seed, trial);
  const std::vector<double> parallel_values =
      CollectTrials(kTrials, trial_seed, trial, parallel);
  for (size_t t = 0; t < kTrials; ++t) {
    if (serial_values[t] != parallel_values[t]) {
      std::ostringstream oss;
      oss << "trial " << t << " differs at " << num_threads << " threads ("
          << serial_values[t] << " vs " << parallel_values[t] << ")";
      return OracleResult::Fail(oss.str());
    }
  }
  return OracleResult::Ok();
}

OracleResult CheckFrontierVsResort(const Dataset& original,
                                   const Dataset& released,
                                   const BuildOptions& build_options,
                                   size_t num_threads) {
  BuildOptions frontier = build_options;
  frontier.algorithm = BuildOptions::Algorithm::kFrontier;
  BuildOptions resort = build_options;
  resort.algorithm = BuildOptions::Algorithm::kResort;
  const DecisionTreeBuilder frontier_builder(frontier,
                                             ExecPolicy{num_threads});
  const DecisionTreeBuilder resort_builder(resort);
  const std::pair<const char*, const Dataset*> sides[] = {
      {"original", &original}, {"released", &released}};
  for (const auto& [side, data] : sides) {
    const DecisionTree want = resort_builder.Build(*data);
    const DecisionTree got = frontier_builder.Build(*data);
    if (!ExactlyEqual(want, got)) {
      std::ostringstream oss;
      oss << side << " tree: kFrontier at " << num_threads
          << " threads differs from serial kResort — "
          << DescribeDifference(want, got);
      return OracleResult::Fail(oss.str());
    }
  }
  return OracleResult::Ok();
}

OracleResult CheckStreamVsBatch(const Dataset& original,
                                const TransformPlan& plan,
                                const Dataset& released, uint64_t plan_seed,
                                const PiecewiseOptions& transform_options,
                                size_t chunk_rows, size_t num_threads) {
  stream::StreamOptions options;
  options.chunk_rows = chunk_rows;
  options.transform = transform_options;
  options.seed = plan_seed;
  options.exec = ExecPolicy{num_threads};
  stream::DatasetChunkReader reader(&original);
  stream::DatasetChunkWriter writer;
  stream::StreamStats stats;
  auto streamed_plan =
      stream::StreamingCustodian::Release(reader, writer, options, &stats);
  std::ostringstream where;
  where << " (chunk_rows=" << chunk_rows << ", threads=" << num_threads
        << ")";
  if (!streamed_plan.ok()) {
    return OracleResult::Fail("streamed release failed: " +
                              streamed_plan.status().ToString() + where.str());
  }
  if (SerializePlan(streamed_plan.value()) != SerializePlan(plan)) {
    return OracleResult::Fail(
        "streamed plan serialization differs from the batch plan" +
        where.str());
  }
  if (ToCsvString(writer.collected()) != ToCsvString(released)) {
    return OracleResult::Fail(
        "streamed release is not byte-identical to the batch release" +
        where.str());
  }
  if (stats.rows != original.NumRows()) {
    std::ostringstream oss;
    oss << "streamed " << stats.rows << " rows, expected "
        << original.NumRows() << where.str();
    return OracleResult::Fail(oss.str());
  }
  if (stats.peak_resident_rows > chunk_rows) {
    std::ostringstream oss;
    oss << "peak resident rows " << stats.peak_resident_rows
        << " exceeds the chunk_rows bound" << where.str();
    return OracleResult::Fail(oss.str());
  }
  if (stats.ood_total != 0) {
    std::ostringstream oss;
    oss << "two-pass fit reported " << stats.ood_total
        << " out-of-domain values; it must see every value during the fit"
        << where.str();
    return OracleResult::Fail(oss.str());
  }
  return OracleResult::Ok();
}

OracleResult CheckColsVsCsv(const Dataset& original,
                            const TransformPlan& plan,
                            const Dataset& released, uint64_t plan_seed,
                            const PiecewiseOptions& transform_options,
                            size_t chunk_rows, size_t num_threads) {
  std::ostringstream where;
  where << " (chunk_rows=" << chunk_rows << ", threads=" << num_threads
        << ")";

  // CSV -> popp-cols -> CSV must be the identity on the canonical CSV
  // bytes (CSV's %.17g cells round-trip doubles exactly, so the canonical
  // dataset is bit-identical to the original).
  const std::string csv_text = ToCsvString(original);
  auto canonical = ParseCsv(csv_text);
  if (!canonical.ok()) {
    return OracleResult::Fail("canonical CSV failed to re-parse: " +
                              canonical.status().ToString());
  }
  ColsStats stats;
  const std::string cols_bytes = SerializeCols(canonical.value(), &stats);
  auto reparsed = ParseCols(cols_bytes);
  if (!reparsed.ok()) {
    return OracleResult::Fail("serialized container failed to parse: " +
                              reparsed.status().ToString());
  }
  if (!(reparsed.value() == canonical.value())) {
    return OracleResult::Fail(
        "popp-cols round trip is not bit-identical to the CSV dataset");
  }
  if (SerializeCols(reparsed.value()) != cols_bytes) {
    return OracleResult::Fail(
        "popp-cols serialization is not byte-stable across a round trip");
  }
  if (ToCsvString(reparsed.value()) != csv_text) {
    return OracleResult::Fail(
        "CSV -> popp-cols -> CSV round trip changed the CSV bytes");
  }

  // Release from both formats: a cols-fed stream and a CSV-dataset-fed
  // stream must produce the same plan and the same released bytes — and
  // both must equal the batch release of the original.
  stream::StreamOptions options;
  options.chunk_rows = chunk_rows;
  options.transform = transform_options;
  options.seed = plan_seed;
  options.exec = ExecPolicy{num_threads};

  auto cols_reader = stream::ColsChunkReader::FromBytes(cols_bytes);
  stream::DatasetChunkWriter cols_writer;
  auto cols_plan = stream::StreamingCustodian::Release(*cols_reader,
                                                       cols_writer, options);
  if (!cols_plan.ok()) {
    return OracleResult::Fail("cols-fed release failed: " +
                              cols_plan.status().ToString() + where.str());
  }
  stream::DatasetChunkReader csv_reader(&canonical.value());
  stream::DatasetChunkWriter csv_writer;
  auto csv_plan = stream::StreamingCustodian::Release(csv_reader, csv_writer,
                                                      options);
  if (!csv_plan.ok()) {
    return OracleResult::Fail("csv-fed release failed: " +
                              csv_plan.status().ToString() + where.str());
  }
  if (SerializePlan(cols_plan.value()) != SerializePlan(csv_plan.value())) {
    return OracleResult::Fail(
        "cols-fed plan serialization differs from the csv-fed plan" +
        where.str());
  }
  if (SerializePlan(cols_plan.value()) != SerializePlan(plan)) {
    return OracleResult::Fail(
        "cols-fed plan serialization differs from the batch plan" +
        where.str());
  }
  const std::string cols_release = ToCsvString(cols_writer.collected());
  if (cols_release != ToCsvString(csv_writer.collected())) {
    return OracleResult::Fail(
        "cols-fed release is not byte-identical to the csv-fed release" +
        where.str());
  }
  if (cols_release != ToCsvString(released)) {
    return OracleResult::Fail(
        "cols-fed release is not byte-identical to the batch release" +
        where.str());
  }
  return OracleResult::Ok();
}

namespace {

/// One streamed release into the journaled on-disk sink. Release() closes
/// the writer itself on success, publishing the final artifact.
Status ReleaseToFile(const Dataset& data, const stream::StreamOptions& options,
                     const std::string& path, bool resume,
                     stream::StreamStats* stats) {
  stream::DatasetChunkReader reader(&data);
  stream::ResumableCsvChunkWriter writer(path, {}, resume);
  auto plan =
      stream::StreamingCustodian::Release(reader, writer, options, stats);
  return plan.ok() ? Status::Ok() : plan.status();
}

/// A scratch directory nothing else writes to: the pid separates parallel
/// test processes, the counter separates calls within one process.
std::filesystem::path FaultScratchDir() {
  static std::atomic<uint64_t> counter{0};
  std::ostringstream name;
  name << "popp_fault_oracle_" << ::getpid() << "_" << counter.fetch_add(1);
  return std::filesystem::temp_directory_path() / name.str();
}

}  // namespace

OracleResult CheckFaultCrashSafety(const Dataset& original, uint64_t plan_seed,
                                   const PiecewiseOptions& transform_options,
                                   size_t chunk_rows, size_t num_schedules) {
  namespace fs = std::filesystem;
  const fs::path dir = FaultScratchDir();
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return OracleResult::Fail("cannot create scratch directory '" +
                              dir.string() + "': " + ec.message());
  }
  struct Cleanup {
    const fs::path& dir;
    ~Cleanup() {
      std::error_code ignored;
      fs::remove_all(dir, ignored);
    }
  } cleanup{dir};

  stream::StreamOptions options;
  options.chunk_rows = chunk_rows;
  options.transform = transform_options;
  options.seed = plan_seed;

  const std::string final_path = (dir / "release.csv").string();
  const std::string partial_path = final_path + ".partial";
  const std::string manifest_path = final_path + ".manifest";

  // The uninterrupted release: the byte-exact target every fault trial's
  // recovery must reproduce.
  const Status baseline =
      ReleaseToFile(original, options, final_path, /*resume=*/false, nullptr);
  if (!baseline.ok()) {
    return OracleResult::Fail("uninterrupted release failed: " +
                              baseline.ToString());
  }
  auto golden = fault::ReadFileToString(final_path);
  if (!golden.ok()) {
    return OracleResult::Fail("cannot read the uninterrupted release: " +
                              golden.status().ToString());
  }
  const uint64_t golden_crc = Crc64(golden.value());

  // How many fault-layer operations a full run performs — the schedule
  // space. The count does not depend on the output path or on which stale
  // files exist (RemoveFile gates before checking existence), so it
  // transfers to the trial runs exactly.
  size_t total_ops = 0;
  {
    fault::ScopedFaultInjection probe(fault::FaultSchedule::CountOnly());
    const Status counted =
        ReleaseToFile(original, options, (dir / "count.csv").string(),
                      /*resume=*/false, nullptr);
    if (!counted.ok()) {
      return OracleResult::Fail("op-count probe failed: " +
                                counted.ToString());
    }
    total_ops = probe.ops_seen();
  }
  if (total_ops == 0) {
    return OracleResult::Fail(
        "the release performed no fault-layer I/O operations — artifact "
        "writes are not routed through the hardened I/O layer");
  }

  Rng rng(plan_seed ^ 0xfa17c4a5af37ull);
  for (size_t k = 0; k < num_schedules; ++k) {
    const size_t fire_at = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(total_ops - 1)));
    const bool crash = rng.Bernoulli(0.5);
    const double fraction = rng.Uniform01();
    std::ostringstream where;
    where << " (schedule " << k << ": " << (crash ? "crash" : "error")
          << " at op " << fire_at << "/" << total_ops << ", torn fraction "
          << fraction << ")";

    // Each trial starts with no final artifact, so the invariant check
    // below cannot be satisfied by a previous trial's output.
    fs::remove(final_path, ec);

    Status faulted;
    bool fired = false;
    {
      fault::ScopedFaultInjection inject(
          crash ? fault::FaultSchedule::CrashAt(fire_at, fraction)
                : fault::FaultSchedule::ErrorAt(fire_at, fraction));
      faulted = ReleaseToFile(original, options, final_path,
                              /*resume=*/false, nullptr);
      fired = inject.fired();
    }
    if (fired && faulted.ok()) {
      return OracleResult::Fail(
          "the injected fault was swallowed: the release reported success" +
          where.str());
    }
    if (!fired && !faulted.ok()) {
      return OracleResult::Fail("no fault fired yet the release failed: " +
                                faulted.ToString() + where.str());
    }

    // Invariant: whatever the fault did, the final name holds either
    // nothing or the complete, checksum-valid artifact.
    if (fault::FileExists(final_path)) {
      auto bytes = fault::ReadFileToString(final_path);
      if (!bytes.ok() || Crc64(bytes.value()) != golden_crc) {
        return OracleResult::Fail(
            "a fault left a partial or corrupt artifact under the final "
            "name" +
            where.str());
      }
    }

    // Invariant: a --resume continuation finishes and reproduces the
    // uninterrupted bytes exactly, leaving no journal debris.
    stream::StreamStats stats;
    const Status resumed =
        ReleaseToFile(original, options, final_path, /*resume=*/true, &stats);
    if (!resumed.ok()) {
      return OracleResult::Fail("resume after the fault failed: " +
                                resumed.ToString() + where.str());
    }
    auto recovered = fault::ReadFileToString(final_path);
    if (!recovered.ok()) {
      return OracleResult::Fail("cannot read the resumed release: " +
                                recovered.status().ToString() + where.str());
    }
    if (Crc64(recovered.value()) != golden_crc) {
      return OracleResult::Fail(
          "the resumed release is not byte-identical to the uninterrupted "
          "release" +
          where.str());
    }
    if (fault::FileExists(partial_path) || fault::FileExists(manifest_path)) {
      return OracleResult::Fail(
          "the resumed release left its journal or partial file behind" +
          where.str());
    }
  }
  return OracleResult::Ok();
}

namespace {

/// Reads and concatenates the shard files of a sharded release in shard
/// order — the bytes the contract pins against the single-process release.
Result<std::string> ConcatenatedShards(const std::string& out_path,
                                       size_t num_shards) {
  std::string all;
  for (size_t k = 0; k < num_shards; ++k) {
    auto bytes = fault::ReadFileToString(shard::ShardFilePath(out_path, k));
    if (!bytes.ok()) return bytes.status();
    all += bytes.value();
  }
  return all;
}

/// First leftover working file of a sharded release (journal, partial or
/// summary artifact), or "" when the release retired them all.
std::string ShardDebris(const std::string& out_path, size_t num_shards) {
  for (size_t k = 0; k < num_shards; ++k) {
    const std::string base = shard::ShardFilePath(out_path, k);
    for (const char* suffix : {".manifest", ".partial"}) {
      if (fault::FileExists(base + suffix)) return base + suffix;
    }
    if (fault::FileExists(shard::ShardSummaryPath(out_path, k))) {
      return shard::ShardSummaryPath(out_path, k);
    }
  }
  return "";
}

/// Checks one *successful* sharded release against the golden stream
/// bytes: plan serialization, concatenated shard bytes, a shard-by-shard
/// manifest verification, and the absence of working-file debris.
OracleResult CheckShardedArtifacts(const std::string& out_path,
                                   size_t num_shards,
                                   const Result<TransformPlan>& shard_plan,
                                   const std::string& golden_plan_bytes,
                                   const std::string& golden_bytes,
                                   const std::string& what,
                                   const std::string& where) {
  if (!shard_plan.ok()) {
    return OracleResult::Fail(what + " failed: " +
                              shard_plan.status().ToString() + where);
  }
  if (SerializePlan(shard_plan.value()) != golden_plan_bytes) {
    return OracleResult::Fail(
        what + ": plan serialization differs from the batch plan" + where);
  }
  auto concat = ConcatenatedShards(out_path, num_shards);
  if (!concat.ok()) {
    return OracleResult::Fail(what + ": cannot read the shard files: " +
                              concat.status().ToString() + where);
  }
  if (concat.value() != golden_bytes) {
    return OracleResult::Fail(
        what + ": concatenated shard files are not byte-identical to the "
        "single-process streamed release" + where);
  }
  const uint64_t plan_crc = Crc64(golden_plan_bytes);
  shard::VerifyTotals totals;
  Status verified = shard::VerifyShardedRelease(out_path, &plan_crc, &totals);
  if (!verified.ok()) {
    return OracleResult::Fail(what + ": meta-manifest verification failed: " +
                              verified.ToString() + where);
  }
  if (totals.shards != num_shards || totals.bytes != concat.value().size()) {
    return OracleResult::Fail(
        what + ": meta-manifest totals disagree with the shard files" +
        where);
  }
  const std::string debris = ShardDebris(out_path, num_shards);
  if (!debris.empty()) {
    return OracleResult::Fail(what + ": left working file '" + debris +
                              "' behind" + where);
  }
  return OracleResult::Ok();
}

}  // namespace

OracleResult CheckShardVsStream(const Dataset& original,
                                const TransformPlan& plan,
                                const Dataset& released, uint64_t plan_seed,
                                const PiecewiseOptions& transform_options,
                                size_t num_shards, size_t num_threads,
                                size_t chunk_rows, bool use_cols,
                                size_t num_fault_schedules) {
  namespace fs = std::filesystem;
  std::ostringstream where_oss;
  where_oss << " (shards=" << num_shards << ", threads=" << num_threads
            << ", chunk_rows=" << chunk_rows << ", format="
            << (use_cols ? "cols" : "csv") << ")";
  const std::string where = where_oss.str();

  const fs::path dir = FaultScratchDir();
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return OracleResult::Fail("cannot create scratch directory '" +
                              dir.string() + "': " + ec.message());
  }
  struct Cleanup {
    const fs::path& dir;
    ~Cleanup() {
      std::error_code ignored;
      fs::remove_all(dir, ignored);
    }
  } cleanup{dir};

  // Materialize the fuzz case as an on-disk input in the requested format.
  const std::string input_path =
      (dir / (use_cols ? "input.cols" : "input.csv")).string();
  const std::string input_bytes =
      use_cols ? SerializeCols(original) : ToCsvString(original);
  if (Status written = fault::WriteFileAtomic(input_path, input_bytes);
      !written.ok()) {
    return OracleResult::Fail("cannot write the scratch input: " +
                              written.ToString());
  }

  // The golden: a single-process streamed release of the same input file.
  const std::string golden_plan_bytes = SerializePlan(plan);
  const std::string stream_path = (dir / "stream.csv").string();
  {
    stream::StreamOptions so;
    so.chunk_rows = chunk_rows;
    so.transform = transform_options;
    so.seed = plan_seed;
    auto reader = stream::MakeChunkReader(input_path,
                                          stream::DatasetFormat::kAuto, {});
    if (!reader.ok()) {
      return OracleResult::Fail("cannot open the scratch input: " +
                                reader.status().ToString() + where);
    }
    stream::ResumableCsvChunkWriter writer(stream_path, {},
                                           /*resume=*/false);
    auto stream_plan =
        stream::StreamingCustodian::Release(*reader.value(), writer, so);
    if (!stream_plan.ok()) {
      return OracleResult::Fail("single-process streamed release failed: " +
                                stream_plan.status().ToString() + where);
    }
    if (SerializePlan(stream_plan.value()) != golden_plan_bytes) {
      return OracleResult::Fail(
          "streamed plan serialization differs from the batch plan" + where);
    }
  }
  auto golden = fault::ReadFileToString(stream_path);
  if (!golden.ok()) {
    return OracleResult::Fail("cannot read the streamed release: " +
                              golden.status().ToString() + where);
  }
  if (golden.value() != ToCsvString(released)) {
    return OracleResult::Fail(
        "the streamed release file differs from the batch release bytes" +
        where);
  }

  shard::ShardOptions options;
  options.num_shards = num_shards;
  options.workers_mode = shard::WorkersMode::kThread;
  options.chunk_rows = chunk_rows;
  options.transform = transform_options;
  options.seed = plan_seed;
  options.exec = ExecPolicy{num_threads};
  const std::string out_path = (dir / "release").string();

  // Fault-free baseline: the sharded release must reproduce the golden.
  shard::ShardStats stats;
  auto baseline =
      shard::ShardedCustodian::Release(input_path, out_path, options, &stats);
  OracleResult checked = CheckShardedArtifacts(
      out_path, num_shards, baseline, golden_plan_bytes, golden.value(),
      "sharded release", where);
  if (!checked.passed) return checked;
  if (stats.rows != original.NumRows()) {
    std::ostringstream oss;
    oss << "sharded release counted " << stats.rows << " rows, expected "
        << original.NumRows() << where;
    return OracleResult::Fail(oss.str());
  }

  // Tamper probe: verification must actually read the shard bytes. Flip
  // one byte of the largest shard file and expect DataLoss.
  {
    size_t victim = 0;
    std::string victim_bytes;
    for (size_t k = 0; k < num_shards; ++k) {
      auto bytes = fault::ReadFileToString(shard::ShardFilePath(out_path, k));
      if (!bytes.ok()) {
        return OracleResult::Fail("cannot reread a shard file: " +
                                  bytes.status().ToString() + where);
      }
      if (bytes.value().size() > victim_bytes.size()) {
        victim = k;
        victim_bytes = std::move(bytes).value();
      }
    }
    if (!victim_bytes.empty()) {
      std::string tampered = victim_bytes;
      tampered[tampered.size() / 2] ^= 0x20;
      const std::string victim_path = shard::ShardFilePath(out_path, victim);
      if (Status s = fault::WriteFileAtomic(victim_path, tampered); !s.ok()) {
        return OracleResult::Fail("cannot tamper with a shard file: " +
                                  s.ToString() + where);
      }
      const Status caught = shard::VerifyShardedRelease(out_path);
      if (caught.ok() || caught.code() != StatusCode::kDataLoss) {
        return OracleResult::Fail(
            "verification missed a flipped byte in shard " +
            std::to_string(victim) + ": " + caught.ToString() + where);
      }
      if (Status s = fault::WriteFileAtomic(victim_path, victim_bytes);
          !s.ok()) {
        return OracleResult::Fail("cannot restore the tampered shard: " +
                                  s.ToString() + where);
      }
    }
  }

  // The schedule space: fault-layer operations in one full sharded
  // release. Gated removes count whether or not the file exists, so the
  // count transfers from the probe run to the trial runs exactly.
  size_t total_ops = 0;
  {
    fault::ScopedFaultInjection probe(fault::FaultSchedule::CountOnly());
    auto counted = shard::ShardedCustodian::Release(
        input_path, (dir / "probe").string(), options, nullptr);
    if (!counted.ok()) {
      return OracleResult::Fail("op-count probe failed: " +
                                counted.status().ToString() + where);
    }
    total_ops = probe.ops_seen();
  }
  if (total_ops == 0) {
    return OracleResult::Fail(
        "the sharded release performed no fault-layer I/O operations — "
        "artifact writes are not routed through the hardened I/O layer");
  }

  Rng rng(plan_seed ^ 0x5a4ded5eed5ull);
  for (size_t k = 0; k < num_fault_schedules; ++k) {
    const size_t fire_at = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(total_ops - 1)));
    const bool crash = rng.Bernoulli(0.5);
    const double fraction = rng.Uniform01();
    std::ostringstream trial_oss;
    trial_oss << " (schedule " << k << ": " << (crash ? "crash" : "error")
              << " at op " << fire_at << "/" << total_ops
              << ", torn fraction " << fraction << ")" << where;
    const std::string trial = trial_oss.str();

    // Each trial starts without a published meta-manifest, so the
    // published-implies-verifiable check below cannot be satisfied by a
    // previous trial's release.
    fs::remove(out_path, ec);

    Status faulted;
    bool fired = false;
    {
      fault::ScopedFaultInjection inject(
          crash ? fault::FaultSchedule::CrashAt(fire_at, fraction)
                : fault::FaultSchedule::ErrorAt(fire_at, fraction));
      auto run = shard::ShardedCustodian::Release(input_path, out_path,
                                                  options, nullptr);
      faulted = run.ok() ? Status::Ok() : run.status();
      fired = inject.fired();
    }
    if (!fired && !faulted.ok()) {
      return OracleResult::Fail("no fault fired yet the release failed: " +
                                faulted.ToString() + trial);
    }
    if (fired && faulted.ok()) {
      // A benign fault (a short read on the hash pass — legal, callers
      // loop) may leave the release successful; then it must be *fully*
      // successful. Crashes and write-path errors must surface as a
      // Status, which the published-implies-verifiable check plus the
      // golden comparison below enforce.
      if (crash) {
        return OracleResult::Fail(
            "an injected crash was swallowed: the sharded release reported "
            "success" + trial);
      }
      if (!fault::FileExists(out_path)) {
        return OracleResult::Fail(
            "a swallowed fault left a successful release without a "
            "meta-manifest" + trial);
      }
    }

    // Invariant: a *published* meta-manifest always names a complete,
    // verifiable release — the commit is the atomicity point.
    if (fault::FileExists(out_path)) {
      const uint64_t plan_crc = Crc64(golden_plan_bytes);
      Status v = shard::VerifyShardedRelease(out_path, &plan_crc, nullptr);
      if (!v.ok()) {
        return OracleResult::Fail(
            "a fault left an unverifiable release behind a published "
            "meta-manifest: " + v.ToString() + trial);
      }
      auto concat = ConcatenatedShards(out_path, num_shards);
      if (!concat.ok() || concat.value() != golden.value()) {
        return OracleResult::Fail(
            "a fault left wrong shard bytes behind a published "
            "meta-manifest" + trial);
      }
    }

    // Invariant: a --resume rerun converges to the exact golden bytes and
    // retires every journal.
    shard::ShardOptions resume_options = options;
    resume_options.resume = true;
    auto resumed = shard::ShardedCustodian::Release(input_path, out_path,
                                                    resume_options, nullptr);
    checked = CheckShardedArtifacts(out_path, num_shards, resumed,
                                    golden_plan_bytes, golden.value(),
                                    "resume after the fault", trial);
    if (!checked.passed) return checked;
  }
  return OracleResult::Ok();
}

namespace {

/// A scratch directory for one serve oracle run; same discipline as
/// FaultScratchDir but kept short, since the socket path inside it must
/// fit sockaddr_un's ~108-byte sun_path.
std::filesystem::path ServeScratchDir() {
  static std::atomic<uint64_t> counter{0};
  std::ostringstream name;
  name << "popp_serve_" << ::getpid() << "_" << counter.fetch_add(1);
  return std::filesystem::temp_directory_path() / name.str();
}

const char* PolicyWord(BreakpointPolicy policy) {
  switch (policy) {
    case BreakpointPolicy::kNone:
      return "none";
    case BreakpointPolicy::kChooseBP:
      return "bp";
    default:
      return "maxmp";
  }
}

}  // namespace

OracleResult CheckServeVsCli(const Dataset& original, uint64_t plan_seed,
                             const PiecewiseOptions& transform_options,
                             size_t num_fault_schedules) {
  namespace fs = std::filesystem;
  const fs::path dir = ServeScratchDir();
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return OracleResult::Fail("cannot create scratch directory '" +
                              dir.string() + "': " + ec.message());
  }
  struct Cleanup {
    const fs::path& dir;
    ~Cleanup() {
      std::error_code ignored;
      fs::remove_all(dir, ignored);
    }
  } cleanup{dir};

  // Only the wire vocabulary: the daemon's request options speak the CLI
  // flag set (seed, policy, breakpoints, anti, threads), so the contract
  // under test is against `popp encode` with those flags — not against
  // the trial case's full PiecewiseOptions surface.
  PiecewiseOptions options;
  options.policy = transform_options.policy;
  options.min_breakpoints = transform_options.min_breakpoints;
  options.global_anti_monotone = transform_options.global_anti_monotone;

  // The canonical dataset is what `popp encode <in.csv>` actually fits:
  // CSV parsing assigns class ids by order of first appearance, which may
  // permute the generated dataset's class table. Both request framings
  // must be derived from it, or the two would carry different schema
  // fingerprints and legitimately miss each other's cache entries.
  auto canonical_or = ParseCsv(ToCsvString(original));
  if (!canonical_or.ok()) {
    return OracleResult::Fail("canonical CSV failed to re-parse: " +
                              canonical_or.status().ToString());
  }
  const Dataset& canonical = canonical_or.value();

  // The exact one-shot CLI sequence: fresh Rng from the seed, serial fit,
  // compiled encode, CSV rendering. These bytes are what `popp encode
  // --seed N ...` writes to its output file.
  Rng rng(plan_seed);
  const TransformPlan cli_plan =
      TransformPlan::Create(canonical, options, rng, ExecPolicy{1});
  const Dataset cli_release =
      CompiledPlan::Compile(cli_plan).EncodeDataset(canonical, ExecPolicy{1});
  const std::string expected_csv = ToCsvString(cli_release);
  // A popp-cols request gets a popp-cols reply: the same release in the
  // framing `popp convert` produces from the CLI's CSV output.
  const std::string expected_cols = SerializeCols(cli_release);
  const std::string expected_plan_doc = SerializePlan(cli_plan);

  serve::ServeOptions serve_options;
  serve_options.socket_path = (dir / "sock").string();
  serve_options.num_threads = 2;
  serve_options.cache_capacity = 4;
  // Server-side saves are confined to <save_dir>/<tenant>/, so the fit
  // request below names a relative target and the artifact lands here.
  serve_options.save_dir = (dir / "saves").string();
  serve::Server server(serve_options);
  const Status started = server.Start();
  if (!started.ok()) {
    return OracleResult::Fail("daemon failed to start: " +
                              started.ToString());
  }
  std::ostringstream server_log;
  int serve_exit = -1;
  std::thread server_thread(
      [&server, &server_log, &serve_exit] {
        serve_exit = server.Serve(server_log);
      });
  struct JoinGuard {
    serve::Server& server;
    std::thread& thread;
    ~JoinGuard() {
      server.RequestShutdown();
      if (thread.joinable()) thread.join();
    }
  } join_guard{server, server_thread};

  serve::ServeClient client;
  const Status connected = client.Connect(serve_options.socket_path);
  if (!connected.ok()) {
    return OracleResult::Fail("cannot connect to the daemon: " +
                              connected.ToString());
  }

  const auto options_text = [&](size_t threads) {
    std::ostringstream text;
    text << "seed " << plan_seed << "\npolicy " << PolicyWord(options.policy)
         << "\nbreakpoints " << options.min_breakpoints << "\n";
    if (options.global_anti_monotone) text << "anti\n";
    text << "threads " << threads << "\n";
    return text.str();
  };

  // Byte identity at 1/2/7 request threads, CSV and popp-cols framing.
  // Only the very first request may fit; every later one must hit the
  // cache (same schema fingerprint, seed and policy).
  const std::string csv_bytes = ToCsvString(canonical);
  const std::string cols_bytes = SerializeCols(canonical);
  const std::pair<const char*, const std::string*> framings[] = {
      {"csv", &csv_bytes}, {"cols", &cols_bytes}};
  bool first_request = true;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{7}}) {
    for (const auto& [framing, bytes] : framings) {
      serve::RequestBody request;
      request.options = options_text(threads);
      request.dataset = *bytes;
      auto reply = client.Call(serve::Tag::kEncode, "oracle", request);
      std::ostringstream where;
      where << " (" << framing << " framing, " << threads << " threads)";
      if (!reply.ok()) {
        return OracleResult::Fail("encode round trip failed: " +
                                  reply.status().ToString() + where.str());
      }
      if (!reply.value().ok()) {
        return OracleResult::Fail("daemon rejected the encode: " +
                                  reply.value().text + where.str());
      }
      const std::string& expected =
          bytes == &cols_bytes ? expected_cols : expected_csv;
      if (reply.value().body != expected) {
        return OracleResult::Fail(
            "daemon-served encode is not byte-identical to the CLI encode" +
            where.str());
      }
      const bool hot =
          reply.value().text.find("hot plan") != std::string::npos;
      if (first_request && hot) {
        return OracleResult::Fail(
            "the first encode reported a hot plan on an empty cache");
      }
      if (!first_request && !hot) {
        return OracleResult::Fail(
            "a repeat encode refit instead of hitting the plan cache" +
            where.str());
      }
      first_request = false;
    }
  }

  // A second tenant's cache is isolated: its first request must refit (a
  // cold plan) yet produce the same bytes.
  {
    serve::RequestBody request;
    request.options = options_text(1);
    request.dataset = csv_bytes;
    auto reply = client.Call(serve::Tag::kEncode, "oracle-b", request);
    if (!reply.ok() || !reply.value().ok()) {
      return OracleResult::Fail("second-tenant encode failed");
    }
    if (reply.value().text.find("cold plan") == std::string::npos) {
      return OracleResult::Fail(
          "a fresh tenant was served another tenant's cached plan");
    }
    if (reply.value().body != expected_csv) {
      return OracleResult::Fail(
          "second-tenant encode is not byte-identical to the CLI encode");
    }
  }

  // Kill-the-daemon-mid-request crash safety: inject faults into the
  // server-side SavePlan of a fit request. The request's fault-layer ops
  // form a deterministic tail of the op sequence (the reply is sent only
  // after the save), so a schedule counted once replays exactly.
  const std::string save_path =
      (dir / "saves" / "oracle" / "plan.key").string();
  serve::RequestBody fit_request;
  fit_request.options = options_text(1) + "save plan.key\n";
  fit_request.dataset = csv_bytes;
  size_t total_ops = 0;
  {
    fault::ScopedFaultInjection probe(fault::FaultSchedule::CountOnly());
    auto reply = client.Call(serve::Tag::kFit, "oracle", fit_request);
    if (!reply.ok() || !reply.value().ok()) {
      return OracleResult::Fail("fit with a server-side save failed");
    }
    if (reply.value().body != expected_plan_doc) {
      return OracleResult::Fail(
          "the daemon's fitted plan document differs from the CLI plan");
    }
    total_ops = probe.ops_seen();
  }
  if (total_ops == 0) {
    return OracleResult::Fail(
        "fit with save performed no fault-layer I/O — the daemon's "
        "artifact writes bypass the hardened I/O layer");
  }

  Rng fault_rng(plan_seed ^ 0x5e12f3c4ull);
  for (size_t k = 0; k < num_fault_schedules; ++k) {
    const size_t fire_at = static_cast<size_t>(fault_rng.UniformInt(
        0, static_cast<int64_t>(total_ops - 1)));
    const bool crash = fault_rng.Bernoulli(0.5);
    const double fraction = fault_rng.Uniform01();
    std::ostringstream where;
    where << " (schedule " << k << ": " << (crash ? "crash" : "error")
          << " at op " << fire_at << "/" << total_ops << ", torn fraction "
          << fraction << ")";
    fs::remove(save_path, ec);
    bool fired = false;
    {
      fault::ScopedFaultInjection inject(
          crash ? fault::FaultSchedule::CrashAt(fire_at, fraction)
                : fault::FaultSchedule::ErrorAt(fire_at, fraction));
      auto reply = client.Call(serve::Tag::kFit, "oracle", fit_request);
      fired = inject.fired();
      if (!reply.ok()) {
        return OracleResult::Fail(
            "the daemon did not survive an injected fault: " +
            reply.status().ToString() + where.str());
      }
      if (fired && reply.value().ok()) {
        return OracleResult::Fail(
            "the injected fault was swallowed: the fit reported success" +
            where.str());
      }
      if (!fired && !reply.value().ok()) {
        return OracleResult::Fail("no fault fired yet the fit failed: " +
                                  reply.value().text + where.str());
      }
    }
    // Invariant: the save path holds either nothing or the complete
    // canonical plan document — never a torn prefix.
    if (fault::FileExists(save_path)) {
      auto bytes = fault::ReadFileToString(save_path);
      if (!bytes.ok() || bytes.value() != expected_plan_doc) {
        return OracleResult::Fail(
            "a fault left a partial plan artifact under the final name" +
            where.str());
      }
    }
    // Recovery: a fault-free retry publishes the exact CLI plan bytes.
    auto retry = client.Call(serve::Tag::kFit, "oracle", fit_request);
    if (!retry.ok() || !retry.value().ok()) {
      return OracleResult::Fail("the fault-free retry failed" + where.str());
    }
    auto saved = fault::ReadFileToString(save_path);
    if (!saved.ok() || saved.value() != expected_plan_doc) {
      return OracleResult::Fail(
          "the retried save is not the canonical plan document" +
          where.str());
    }
  }

  // Protocol shutdown: drain, remove the socket file, exit 0.
  auto bye = client.Call(serve::Tag::kShutdown, "", serve::RequestBody{});
  if (!bye.ok() || !bye.value().ok()) {
    return OracleResult::Fail("the shutdown request failed");
  }
  server_thread.join();
  if (serve_exit != 0) {
    std::ostringstream oss;
    oss << "a drained daemon exited " << serve_exit << " instead of 0 (log: "
        << server_log.str() << ")";
    return OracleResult::Fail(oss.str());
  }
  if (fault::FileExists(serve_options.socket_path)) {
    return OracleResult::Fail(
        "the daemon exited without removing its socket file");
  }
  return OracleResult::Ok();
}

OracleResult CheckSupervisedConvergence(
    const Dataset& original, const TransformPlan& plan,
    const Dataset& released, uint64_t plan_seed,
    const PiecewiseOptions& transform_options, size_t num_shards,
    size_t num_threads, size_t chunk_rows, size_t num_schedules) {
  namespace fs = std::filesystem;
  using Clock = std::chrono::steady_clock;
  // The loud-failure wall bound: a supervised run that needs longer than
  // this on a trivial fuzz case is a hang, which is exactly the defect
  // class this oracle exists to catch.
  constexpr uint64_t kTrialWallMs = 60000;
  std::ostringstream where_oss;
  where_oss << " (shards=" << num_shards << ", threads=" << num_threads
            << ", chunk_rows=" << chunk_rows << ")";
  const std::string where = where_oss.str();

  const fs::path dir = FaultScratchDir();
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return OracleResult::Fail("cannot create scratch directory '" +
                              dir.string() + "': " + ec.message());
  }
  struct Cleanup {
    const fs::path& dir;
    ~Cleanup() {
      std::error_code ignored;
      fs::remove_all(dir, ignored);
    }
  } cleanup{dir};

  // ---- Shard half: delay/error/crash schedules over a thread-mode
  // sharded release (process-mode supervision is exercised by the
  // fork-based tests; fork does not mix with test harnesses).
  const std::string input_path = (dir / "input.csv").string();
  if (Status written =
          fault::WriteFileAtomic(input_path, ToCsvString(original));
      !written.ok()) {
    return OracleResult::Fail("cannot write the scratch input: " +
                              written.ToString());
  }
  const std::string golden_plan_bytes = SerializePlan(plan);
  const std::string golden_bytes = ToCsvString(released);

  shard::ShardOptions options;
  options.num_shards = num_shards;
  options.workers_mode = shard::WorkersMode::kThread;
  options.chunk_rows = chunk_rows;
  options.transform = transform_options;
  options.seed = plan_seed;
  options.exec = ExecPolicy{num_threads};
  const std::string out_path = (dir / "release").string();

  auto baseline =
      shard::ShardedCustodian::Release(input_path, out_path, options, nullptr);
  OracleResult checked = CheckShardedArtifacts(
      out_path, num_shards, baseline, golden_plan_bytes, golden_bytes,
      "supervised baseline release", where);
  if (!checked.passed) return checked;

  size_t total_ops = 0;
  {
    fault::ScopedFaultInjection probe(fault::FaultSchedule::CountOnly());
    auto counted = shard::ShardedCustodian::Release(
        input_path, (dir / "probe").string(), options, nullptr);
    if (!counted.ok()) {
      return OracleResult::Fail("op-count probe failed: " +
                                counted.status().ToString() + where);
    }
    total_ops = probe.ops_seen();
  }
  if (total_ops == 0) {
    return OracleResult::Fail(
        "the sharded release performed no fault-layer I/O operations" +
        where);
  }

  Rng rng(plan_seed ^ 0x50bead5c0de5ull);
  for (size_t k = 0; k < num_schedules; ++k) {
    const int kind = static_cast<int>(rng.UniformInt(0, 2));  // delay/err/crash
    const size_t fire_at = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(total_ops - 1)));
    const uint32_t delay_ms =
        static_cast<uint32_t>(5 + rng.UniformInt(0, 35));
    const double fraction = rng.Uniform01();
    std::ostringstream trial_oss;
    trial_oss << " (schedule " << k << ": "
              << (kind == 0 ? "delay" : kind == 1 ? "error" : "crash")
              << " at op " << fire_at << "/" << total_ops << ")" << where;
    const std::string trial = trial_oss.str();

    fs::remove(out_path, ec);
    const auto start = Clock::now();
    Status faulted;
    bool fired = false;
    {
      fault::ScopedFaultInjection inject(
          kind == 0   ? fault::FaultSchedule::DelayAt(fire_at, delay_ms)
          : kind == 1 ? fault::FaultSchedule::ErrorAt(fire_at, fraction)
                      : fault::FaultSchedule::CrashAt(fire_at, fraction));
      auto run = shard::ShardedCustodian::Release(input_path, out_path,
                                                  options, nullptr);
      faulted = run.ok() ? Status::Ok() : run.status();
      fired = inject.fired();
      if (kind == 0) {
        // A slow operation is not an error: the delayed release must
        // succeed and reproduce the fault-free artifacts byte for byte.
        checked = CheckShardedArtifacts(out_path, num_shards, run,
                                        golden_plan_bytes, golden_bytes,
                                        "delayed release", trial);
        if (!checked.passed) return checked;
      }
    }
    const uint64_t elapsed_ms =
        static_cast<uint64_t>(std::chrono::duration_cast<
                                  std::chrono::milliseconds>(Clock::now() -
                                                             start)
                                  .count());
    if (elapsed_ms > kTrialWallMs) {
      return OracleResult::Fail(
          "the supervised release exceeded the wall-clock bound (" +
          std::to_string(elapsed_ms) + " ms)" + trial);
    }
    if (kind == 0) continue;

    if (!fired && !faulted.ok()) {
      return OracleResult::Fail("no fault fired yet the release failed: " +
                                faulted.ToString() + trial);
    }
    if (fired && faulted.ok()) {
      if (kind == 2) {
        return OracleResult::Fail(
            "an injected crash was swallowed: the sharded release "
            "reported success" + trial);
      }
      if (!fault::FileExists(out_path)) {
        return OracleResult::Fail(
            "a swallowed fault left a successful release without a "
            "meta-manifest" + trial);
      }
    }
    // A *published* meta-manifest always names a complete verifiable
    // release, whatever the schedule did.
    if (fault::FileExists(out_path)) {
      const uint64_t plan_crc = Crc64(golden_plan_bytes);
      Status v = shard::VerifyShardedRelease(out_path, &plan_crc, nullptr);
      if (!v.ok()) {
        return OracleResult::Fail(
            "a fault left an unverifiable release behind a published "
            "meta-manifest: " + v.ToString() + trial);
      }
      auto concat = ConcatenatedShards(out_path, num_shards);
      if (!concat.ok() || concat.value() != golden_bytes) {
        return OracleResult::Fail(
            "a fault left wrong shard bytes behind a published "
            "meta-manifest" + trial);
      }
    }
    // Convergence: the --resume rerun reaches the exact golden bytes and
    // retires every journal.
    shard::ShardOptions resume_options = options;
    resume_options.resume = true;
    const auto resume_start = Clock::now();
    auto resumed = shard::ShardedCustodian::Release(input_path, out_path,
                                                    resume_options, nullptr);
    if (std::chrono::duration_cast<std::chrono::milliseconds>(
            Clock::now() - resume_start)
            .count() > static_cast<int64_t>(kTrialWallMs)) {
      return OracleResult::Fail(
          "the resume rerun exceeded the wall-clock bound" + trial);
    }
    checked = CheckShardedArtifacts(out_path, num_shards, resumed,
                                    golden_plan_bytes, golden_bytes,
                                    "resume after the fault", trial);
    if (!checked.passed) return checked;
  }

  // ---- Serve half: delay/error/crash schedules against an in-process
  // daemon with a deliberately tight admission bound, driven through the
  // client's deadline-aware retry loop.
  const fs::path serve_dir = ServeScratchDir();
  fs::create_directories(serve_dir, ec);
  if (ec) {
    return OracleResult::Fail("cannot create the serve scratch dir: " +
                              ec.message());
  }
  Cleanup serve_cleanup{serve_dir};

  auto canonical_or = ParseCsv(ToCsvString(original));
  if (!canonical_or.ok()) {
    return OracleResult::Fail("canonical CSV failed to re-parse: " +
                              canonical_or.status().ToString());
  }
  const Dataset& canonical = canonical_or.value();
  PiecewiseOptions wire_options;
  wire_options.policy = transform_options.policy;
  wire_options.min_breakpoints = transform_options.min_breakpoints;
  wire_options.global_anti_monotone = transform_options.global_anti_monotone;
  Rng plan_rng(plan_seed);
  const std::string expected_plan_doc = SerializePlan(
      TransformPlan::Create(canonical, wire_options, plan_rng, ExecPolicy{1}));

  serve::ServeOptions serve_options;
  serve_options.socket_path = (serve_dir / "sock").string();
  serve_options.num_threads = 2;
  serve_options.cache_capacity = 4;
  serve_options.save_dir = (serve_dir / "saves").string();
  serve_options.max_inflight = 1;
  serve_options.max_queue = 1;
  serve::Server server(serve_options);
  if (Status started = server.Start(); !started.ok()) {
    return OracleResult::Fail("daemon failed to start: " +
                              started.ToString());
  }
  std::ostringstream server_log;
  int serve_exit = -1;
  std::thread server_thread([&server, &server_log, &serve_exit] {
    serve_exit = server.Serve(server_log);
  });
  struct JoinGuard {
    serve::Server& server;
    std::thread& thread;
    ~JoinGuard() {
      server.RequestShutdown();
      if (thread.joinable()) thread.join();
    }
  } join_guard{server, server_thread};

  serve::ServeClient client;
  if (Status connected = client.Connect(serve_options.socket_path);
      !connected.ok()) {
    return OracleResult::Fail("cannot connect to the daemon: " +
                              connected.ToString());
  }

  // Liveness is unconditional: health answers with the admission counters.
  {
    auto health =
        client.Call(serve::Tag::kHealth, "", serve::RequestBody{});
    if (!health.ok() || !health.value().ok() ||
        health.value().body.find("inflight") == std::string::npos) {
      return OracleResult::Fail(
          "the health op did not answer with admission stats" + where);
    }
  }

  const auto fit_options = [&](uint64_t deadline_ms) {
    std::ostringstream text;
    text << "seed " << plan_seed << "\npolicy "
         << PolicyWord(wire_options.policy) << "\nbreakpoints "
         << wire_options.min_breakpoints << "\n";
    if (wire_options.global_anti_monotone) text << "anti\n";
    if (deadline_ms != UINT64_MAX) text << "deadline-ms " << deadline_ms
                                        << "\n";
    text << "save plan.key\n";
    return text.str();
  };
  const std::string csv_bytes = ToCsvString(canonical);
  const std::string save_path =
      (serve_dir / "saves" / "oracle" / "plan.key").string();

  // "deadline-ms 0" is the canonical shed probe: already expired at frame
  // receipt, it must come back as an explicit kUnavailable — never hang,
  // never run.
  {
    serve::RequestBody probe;
    probe.options = fit_options(0);
    probe.dataset = csv_bytes;
    auto reply = client.Call(serve::Tag::kFit, "oracle", probe);
    if (!reply.ok()) {
      return OracleResult::Fail("the deadline-0 probe broke the connection: " +
                                reply.status().ToString() + where);
    }
    if (reply.value().code != StatusCode::kUnavailable ||
        reply.value().text.find("deadline") == std::string::npos) {
      return OracleResult::Fail(
          "an already-expired request was not shed with an explicit "
          "deadline diagnostic (code " +
          std::string(StatusCodeName(reply.value().code)) + ": " +
          reply.value().text + ")" + where);
    }
    if (fault::FileExists(save_path)) {
      return OracleResult::Fail(
          "a shed request still published a save artifact" + where);
    }
  }

  serve::RequestBody fit_request;
  fit_request.options = fit_options(UINT64_MAX);
  fit_request.dataset = csv_bytes;
  size_t serve_ops = 0;
  {
    fault::ScopedFaultInjection probe(fault::FaultSchedule::CountOnly());
    auto reply = client.Call(serve::Tag::kFit, "oracle", fit_request);
    if (!reply.ok() || !reply.value().ok() ||
        reply.value().body != expected_plan_doc) {
      return OracleResult::Fail(
          "the fault-free fit-with-save did not produce the CLI plan" +
          where);
    }
    serve_ops = probe.ops_seen();
  }
  if (serve_ops == 0) {
    return OracleResult::Fail(
        "fit with save performed no fault-layer I/O" + where);
  }

  for (size_t k = 0; k < num_schedules; ++k) {
    const int kind = static_cast<int>(rng.UniformInt(0, 2));
    const size_t fire_at = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(serve_ops - 1)));
    const uint32_t delay_ms =
        static_cast<uint32_t>(5 + rng.UniformInt(0, 35));
    const double fraction = rng.Uniform01();
    const bool bounded = rng.Bernoulli(0.5);
    const uint64_t deadline_ms =
        bounded ? static_cast<uint64_t>(40 + rng.UniformInt(0, 160))
                : UINT64_MAX;
    std::ostringstream trial_oss;
    trial_oss << " (serve schedule " << k << ": "
              << (kind == 0 ? "delay" : kind == 1 ? "error" : "crash")
              << " at op " << fire_at << "/" << serve_ops << ", deadline ";
    if (bounded) {
      trial_oss << deadline_ms << " ms)";
    } else {
      trial_oss << "none)";
    }
    trial_oss << where;
    const std::string trial = trial_oss.str();

    fs::remove(save_path, ec);
    serve::RequestBody request;
    request.options = fit_options(deadline_ms);
    request.dataset = csv_bytes;
    serve::RetryOptions retry;
    retry.max_retries = 2;
    retry.deadline_ms = bounded ? deadline_ms : 0;
    retry.seed = plan_seed + k;
    retry.backoff.base_ms = 5;
    retry.backoff.cap_ms = 50;

    bool fired = false;
    Result<serve::ReplyBody> reply = serve::ReplyBody{};
    {
      fault::ScopedFaultInjection inject(
          kind == 0   ? fault::FaultSchedule::DelayAt(fire_at, delay_ms)
          : kind == 1 ? fault::FaultSchedule::ErrorAt(fire_at, fraction)
                      : fault::FaultSchedule::CrashAt(fire_at, fraction));
      reply = client.CallWithRetry(serve::Tag::kFit, "oracle", request,
                                   retry);
      fired = inject.fired();
    }
    if (!reply.ok()) {
      return OracleResult::Fail(
          "the daemon did not survive an injected schedule: " +
          reply.status().ToString() + trial);
    }
    if (kind == 0 && !reply.value().ok() &&
        reply.value().code != StatusCode::kUnavailable) {
      // A delay is not an I/O failure: the only legal error surface is
      // the deadline/overload contract.
      return OracleResult::Fail(
          "an injected delay surfaced as a phantom error (code " +
          std::string(StatusCodeName(reply.value().code)) + ": " +
          reply.value().text + ")" + trial);
    }
    if (kind != 0 && fired && reply.value().ok()) {
      return OracleResult::Fail(
          "the injected fault was swallowed: the fit reported success" +
          trial);
    }
    if (!fired && !reply.value().ok() &&
        reply.value().code != StatusCode::kUnavailable) {
      return OracleResult::Fail("no fault fired yet the fit failed: " +
                                reply.value().text + trial);
    }
    // The save path never holds a torn document, whatever happened.
    if (fault::FileExists(save_path)) {
      auto bytes = fault::ReadFileToString(save_path);
      if (!bytes.ok() || bytes.value() != expected_plan_doc) {
        return OracleResult::Fail(
            "a schedule left a partial plan artifact under the final "
            "name" + trial);
      }
    }
    // Convergence: a fault-free retry without a deadline publishes the
    // exact CLI plan bytes.
    auto settled =
        client.CallWithRetry(serve::Tag::kFit, "oracle", fit_request, retry);
    if (!settled.ok() || !settled.value().ok() ||
        settled.value().body != expected_plan_doc) {
      return OracleResult::Fail("the fault-free retry did not converge" +
                                trial);
    }
    auto saved = fault::ReadFileToString(save_path);
    if (!saved.ok() || saved.value() != expected_plan_doc) {
      return OracleResult::Fail(
          "the retried save is not the canonical plan document" + trial);
    }
  }

  auto bye = client.Call(serve::Tag::kShutdown, "", serve::RequestBody{});
  if (!bye.ok() || !bye.value().ok()) {
    return OracleResult::Fail("the shutdown request failed" + where);
  }
  server_thread.join();
  if (serve_exit != 0) {
    return OracleResult::Fail("a drained daemon exited " +
                              std::to_string(serve_exit) +
                              " instead of 0 (log: " + server_log.str() +
                              ")");
  }
  if (fault::FileExists(serve_options.socket_path)) {
    return OracleResult::Fail(
        "the daemon exited without removing its socket file" + where);
  }
  return OracleResult::Ok();
}

TrialContext MakeTrialContext(TrialCase c) {
  TrialContext ctx;
  Rng plan_rng(c.plan_seed);
  ctx.plan = TransformPlan::Create(c.data, c.transform_options, plan_rng);
  ctx.released = ctx.plan.EncodeDataset(c.data);
  ctx.c = std::move(c);
  return ctx;
}

const std::vector<Oracle>& AllOracles() {
  static const std::vector<Oracle>* oracles = [] {
    auto tree_criteria = [](const TrialContext& ctx) {
      std::vector<SplitCriterion> criteria = {SplitCriterion::kGini,
                                              SplitCriterion::kEntropy};
      const SplitCriterion own = ctx.c.build_options.criterion;
      if (own != SplitCriterion::kGini && own != SplitCriterion::kEntropy) {
        criteria.push_back(own);
      }
      return criteria;
    };
    auto* v = new std::vector<Oracle>{
        {"encode_bijective",
         [](const TrialContext& ctx) {
           return CheckEncodeBijective(ctx.c.data, ctx.plan);
         }},
        {"global_invariant",
         [](const TrialContext& ctx) {
           return CheckGlobalInvariant(ctx.c.data, ctx.plan);
         }},
        {"label_runs",
         [](const TrialContext& ctx) {
           return CheckLabelRunPreservation(ctx.c.data, ctx.plan,
                                            ctx.released);
         }},
        {"tree_equivalence",
         [tree_criteria](const TrialContext& ctx) {
           return CheckTreeEquivalence(ctx.c.data, ctx.plan, ctx.released,
                                       ctx.c.build_options, tree_criteria(ctx),
                                       /*pruned=*/false);
         }},
        {"tree_equivalence_pruned",
         [tree_criteria](const TrialContext& ctx) {
           return CheckTreeEquivalence(ctx.c.data, ctx.plan, ctx.released,
                                       ctx.c.build_options, tree_criteria(ctx),
                                       /*pruned=*/true);
         }},
        {"frontier_vs_resort",
         [](const TrialContext& ctx) {
           // Case-derived thread count in [1, 8], stepped differently from
           // the other threaded oracles.
           const size_t threads = 1 + (ctx.c.plan_seed / 23) % 8;
           return CheckFrontierVsResort(ctx.c.data, ctx.released,
                                        ctx.c.build_options, threads);
         }},
        {"serialize_roundtrip",
         [](const TrialContext& ctx) {
           return CheckSerializeRoundTrip(ctx.c.data, ctx.plan,
                                          ctx.c.build_options);
         }},
        {"stream_vs_batch",
         [](const TrialContext& ctx) {
           // Case-derived chunk size in [1, rows] and thread count in
           // [1, 4]: small seeds exercise row-at-a-time streaming, large
           // ones the whole-dataset degenerate chunking.
           const size_t rows = std::max<size_t>(ctx.c.data.NumRows(), 1);
           const size_t chunk = 1 + ctx.c.plan_seed % rows;
           const size_t threads = 1 + (ctx.c.plan_seed / 5) % 4;
           return CheckStreamVsBatch(ctx.c.data, ctx.plan, ctx.released,
                                     ctx.c.plan_seed,
                                     ctx.c.transform_options, chunk,
                                     threads);
         }},
        {"cols_vs_csv",
         [](const TrialContext& ctx) {
           // A different chunk stepping than stream_vs_batch, and a thread
           // count drawn from {1, 2, 7, 8} — the odd prime hits uneven
           // row/worker splits, 8 a power-of-two split.
           static constexpr size_t kThreadSteps[] = {1, 2, 7, 8};
           const size_t rows = std::max<size_t>(ctx.c.data.NumRows(), 1);
           const size_t chunk = 1 + (ctx.c.plan_seed / 11) % rows;
           const size_t threads = kThreadSteps[ctx.c.plan_seed % 4];
           return CheckColsVsCsv(ctx.c.data, ctx.plan, ctx.released,
                                 ctx.c.plan_seed, ctx.c.transform_options,
                                 chunk, threads);
         }},
        {"compiled_vs_interpreted",
         [](const TrialContext& ctx) {
           // Case-derived thread count in [2, 7], like parallel_determinism
           // but offset so the two oracles stress different counts per case.
           const size_t threads = 2 + (ctx.c.plan_seed / 3) % 6;
           return CheckCompiledVsInterpreted(ctx.c.data, ctx.plan,
                                             ctx.released, threads);
         }},
        {"fault_crash_safety",
         [](const TrialContext& ctx) {
           // Case-derived chunk size (a different stepping than
           // stream_vs_batch, so the two oracles cut the stream
           // differently) and a small schedule batch per case; the
           // dedicated fault test sweeps hundreds more schedules.
           const size_t rows = std::max<size_t>(ctx.c.data.NumRows(), 1);
           const size_t chunk = 1 + (ctx.c.plan_seed / 7) % rows;
           return CheckFaultCrashSafety(ctx.c.data, ctx.c.plan_seed,
                                        ctx.c.transform_options, chunk,
                                        /*num_schedules=*/3);
         }},
        {"shard_vs_stream",
         [](const TrialContext& ctx) {
           // Shard counts {1, 2, 3, 8} cross the degenerate single-shard
           // path, an odd split and a power-of-two split; thread counts
           // {1, 2, 7} cross serial, paired and oversubscribed workers;
           // the format bit alternates CSV and popp-cols inputs. Two fault
           // schedules per case keep the fuzz loop affordable — the
           // dedicated tests and the ci_check shard stage sweep more.
           static constexpr size_t kShardSteps[] = {1, 2, 3, 8};
           static constexpr size_t kThreadSteps[] = {1, 2, 7};
           const size_t rows = std::max<size_t>(ctx.c.data.NumRows(), 1);
           const size_t shards = kShardSteps[ctx.c.plan_seed % 4];
           const size_t threads = kThreadSteps[(ctx.c.plan_seed / 4) % 3];
           const size_t chunk = 1 + (ctx.c.plan_seed / 13) % rows;
           const bool cols = (ctx.c.plan_seed / 2) % 2 == 1;
           return CheckShardVsStream(ctx.c.data, ctx.plan, ctx.released,
                                     ctx.c.plan_seed,
                                     ctx.c.transform_options, shards,
                                     threads, chunk, cols,
                                     /*num_fault_schedules=*/2);
         }},
        {"serve_vs_cli",
         [](const TrialContext& ctx) {
           // A real daemon round trip per case is the costliest oracle, so
           // the per-case fault batch stays small; tests/serve_test.cc and
           // the ci_check serve stage cover the lifecycle edges.
           return CheckServeVsCli(ctx.c.data, ctx.c.plan_seed,
                                  ctx.c.transform_options,
                                  /*num_fault_schedules=*/2);
         }},
        {"supervised_convergence",
         [](const TrialContext& ctx) {
           // Shard counts {2, 3} (supervision is trivial at one shard),
           // thread counts {1, 2, 7}, and a chunk stepping distinct from
           // every other oracle. Three schedules per half (shard + serve)
           // make each trial six randomized crash/error/delay schedules,
           // so the ci_check resilience stage's trial counts clear the
           // 200-schedule bar per sanitizer.
           static constexpr size_t kShardSteps[] = {2, 3};
           static constexpr size_t kThreadSteps[] = {1, 2, 7};
           const size_t rows = std::max<size_t>(ctx.c.data.NumRows(), 1);
           const size_t shards = kShardSteps[ctx.c.plan_seed % 2];
           const size_t threads = kThreadSteps[(ctx.c.plan_seed / 3) % 3];
           const size_t chunk = 1 + (ctx.c.plan_seed / 17) % rows;
           return CheckSupervisedConvergence(
               ctx.c.data, ctx.plan, ctx.released, ctx.c.plan_seed,
               ctx.c.transform_options, shards, threads, chunk,
               /*num_schedules=*/3);
         }},
        {"parallel_determinism",
         [](const TrialContext& ctx) {
           // A case-derived thread count in [2, 7] keeps the sweep cheap
           // while still varying the worker/task interleavings per case.
           const size_t threads = 2 + ctx.c.plan_seed % 6;
           return CheckParallelDeterminism(
               ctx.c.data, ctx.plan, ctx.released, ctx.c.build_options,
               ctx.c.plan_seed, ctx.c.transform_options, threads);
         }},
    };
    return v;
  }();
  return *oracles;
}

OracleResult RunOracleOnCase(const Oracle& oracle, const TrialCase& c) {
  return oracle.run(MakeTrialContext(c));
}

}  // namespace popp::check
