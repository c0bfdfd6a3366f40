#include "transform/compiled.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "check/oracles.h"
#include "data/csv.h"
#include "data/summary.h"
#include "stream/chunk_io.h"
#include "stream/ood_policy.h"
#include "stream/streaming_custodian.h"
#include "synth/covtype_like.h"
#include "synth/presets.h"
#include "transform/piecewise.h"
#include "transform/plan.h"
#include "transform/serialize.h"
#include "util/rng.h"

namespace popp {
namespace {

/// Bit-level equality (stricter than ==): the compiled kernels promise the
/// exact same bytes as the interpreted path, -0.0 vs 0.0 included.
testing::AssertionResult BitEqual(double a, double b) {
  uint64_t ua, ub;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  if (ua == ub) return testing::AssertionSuccess();
  return testing::AssertionFailure()
         << a << " and " << b << " differ at the bit level";
}

Dataset CovtypeLikeData(size_t rows = 500, uint64_t seed = 17) {
  Rng rng(seed);
  return GenerateCovtypeLike(SmallCovtypeSpec(rows), rng);
}

/// Probe set of one transform: active-domain values, inter-value midpoints
/// (non-integral, so they bypass the LUT), piece-gap interiors (the bridge
/// branch) and out-of-hull offsets on both sides.
std::vector<AttrValue> Probes(const AttributeSummary& summary,
                              const PiecewiseTransform& t) {
  std::vector<AttrValue> probes;
  const auto& vals = summary.values();
  for (size_t i = 0; i < vals.size(); ++i) {
    probes.push_back(vals[i]);
    if (i + 1 < vals.size()) probes.push_back(0.5 * (vals[i] + vals[i + 1]));
  }
  const AttrValue lo = t.piece(0).domain_lo;
  const AttrValue hi = t.piece(t.NumPieces() - 1).domain_hi;
  for (AttrValue x : {lo - 3.0, lo - 0.5, hi + 0.5, hi + 3.0}) {
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

/// Asserts Apply/Inverse bit-identity over the probe set for both compile
/// variants (LUT fast path on and off).
void ExpectBitIdentical(const AttributeSummary& summary,
                        const PiecewiseTransform& t,
                        const std::string& what) {
  const CompiledTransform with_lut = CompiledTransform::Compile(t);
  const CompiledTransform no_lut = CompiledTransform::Compile(
      t, CompiledTransform::CompileOptions{.enable_lut = false});
  EXPECT_FALSE(no_lut.has_lut());
  for (AttrValue x : Probes(summary, t)) {
    for (const CompiledTransform* ct : {&with_lut, &no_lut}) {
      EXPECT_TRUE(BitEqual(t.Apply(x), ct->Apply(x)))
          << what << ": Apply(" << x << ")"
          << (ct == &with_lut ? " [lut]" : " [search]");
      const AttrValue y = t.Apply(x);
      EXPECT_TRUE(BitEqual(t.Inverse(y), ct->Inverse(y)))
          << what << ": Inverse(" << y << ")"
          << (ct == &with_lut ? " [lut]" : " [search]");
    }
  }
}

AttributeSummary SummaryOf(const Dataset& data, size_t attr = 0) {
  return AttributeSummary::FromDataset(data, attr);
}

// ------------------------------------------------- per-family bit identity

/// Every F_mono family × both global directions × anti-monotone piece
/// sampling, probed in-domain, between values, in gaps, and out-of-hull.
TEST(CompiledTransformTest, MonotoneFamiliesAreBitIdentical) {
  const Dataset data = CovtypeLikeData();
  const AttributeSummary summary = SummaryOf(data);
  const struct {
    FamilyOptions::ShapeChoice shape;
    const char* name;
  } kFamilies[] = {
      {FamilyOptions::ShapeChoice::kLinear, "linear"},
      {FamilyOptions::ShapeChoice::kPolynomial, "polynomial"},
      {FamilyOptions::ShapeChoice::kLog, "log"},
      {FamilyOptions::ShapeChoice::kSqrtLog, "sqrt-log"},
  };
  for (const auto& family : kFamilies) {
    for (const bool global_anti : {false, true}) {
      for (const double anti_prob : {0.0, 1.0}) {
        PiecewiseOptions options;
        options.policy = BreakpointPolicy::kChooseBP;  // F_mono only
        options.min_breakpoints = 6;
        options.family.forced_shape = family.shape;
        options.family.anti_monotone_prob = anti_prob;
        options.global_anti_monotone = global_anti;
        Rng rng(97 + (anti_prob > 0.5 ? 1 : 0));
        const PiecewiseTransform t =
            PiecewiseTransform::Create(summary, options, rng);
        ExpectBitIdentical(summary, t,
                           std::string(family.name) +
                               (global_anti ? " anti" : " mono"));
      }
    }
  }
}

/// F_bi permutation pieces (ChooseMaxMP on data with monochromatic runs),
/// including nearest-value snapping for non-domain probes.
TEST(CompiledTransformTest, PermutationPiecesAreBitIdentical) {
  const Dataset data = CovtypeLikeData(800, /*seed=*/23);
  for (size_t attr = 0; attr < data.NumAttributes(); ++attr) {
    const AttributeSummary summary = SummaryOf(data, attr);
    PiecewiseOptions options;  // default kChooseMaxMP + exploit_monochromatic
    Rng rng(41 + attr);
    const PiecewiseTransform t =
        PiecewiseTransform::Create(summary, options, rng);
    ExpectBitIdentical(summary, t, "maxmp attr " + std::to_string(attr));
  }
}

// ----------------------------------------------------------- LUT fast path

TEST(CompiledTransformTest, LutEligibleForSmallIntegerHull) {
  const Dataset data = CovtypeLikeData();  // integer-valued attributes
  const AttributeSummary summary = SummaryOf(data);
  PiecewiseOptions options;
  Rng rng(7);
  const PiecewiseTransform t =
      PiecewiseTransform::Create(summary, options, rng);
  const CompiledTransform compiled = CompiledTransform::Compile(t);
  ASSERT_TRUE(compiled.has_lut());
  const AttrValue lo = t.piece(0).domain_lo;
  const AttrValue hi = t.piece(t.NumPieces() - 1).domain_hi;
  EXPECT_EQ(compiled.LutEntries(),
            static_cast<size_t>(hi - lo) + 1);
  // Every integer in the hull takes the LUT path and must equal the
  // interpreted image exactly.
  for (AttrValue x = lo; x <= hi; x += 1.0) {
    EXPECT_TRUE(BitEqual(t.Apply(x), compiled.Apply(x))) << "x=" << x;
  }
}

TEST(CompiledTransformTest, LutIneligibleForFractionalBoundaries) {
  // A piece with non-integral domain endpoints cannot use the value-indexed
  // LUT (the eligibility rule requires integral piece boundaries).
  Dataset d({"x"}, {"a", "b"});
  for (int i = 0; i < 30; ++i) {
    d.AddRow({10.5 + static_cast<AttrValue>(i)}, i % 2);
  }
  const AttributeSummary summary = SummaryOf(d);
  PiecewiseOptions options;
  Rng rng(11);
  const PiecewiseTransform t =
      PiecewiseTransform::Create(summary, options, rng);
  const CompiledTransform compiled = CompiledTransform::Compile(t);
  EXPECT_FALSE(compiled.has_lut());
  ExpectBitIdentical(summary, t, "fractional hull");
}

TEST(CompiledTransformTest, LutIneligibleBeyondEntryCap) {
  Dataset d({"x"}, {"a", "b"});
  for (int i = 0; i < 40; ++i) {
    d.AddRow({static_cast<AttrValue>(i * 5000)}, i % 2);
  }
  const AttributeSummary summary = SummaryOf(d);
  PiecewiseOptions options;
  Rng rng(13);
  const PiecewiseTransform t =
      PiecewiseTransform::Create(summary, options, rng);
  // Hull spans 195001 integers > the 65536-entry cap.
  const CompiledTransform compiled = CompiledTransform::Compile(t);
  EXPECT_FALSE(compiled.has_lut());
  // A raised cap admits it again.
  const CompiledTransform big = CompiledTransform::Compile(
      t, CompiledTransform::CompileOptions{.max_lut_entries = 1 << 20});
  EXPECT_TRUE(big.has_lut());
  ExpectBitIdentical(summary, t, "wide hull");
}

// ------------------------------------------------------- OOD shared logic

TEST(CompiledTransformTest, OodEncodersMatchStreamHelpers) {
  const Dataset data = CovtypeLikeData();
  for (const bool global_anti : {false, true}) {
    const AttributeSummary summary = SummaryOf(data);
    PiecewiseOptions options;
    options.global_anti_monotone = global_anti;
    Rng rng(29);
    const PiecewiseTransform t =
        PiecewiseTransform::Create(summary, options, rng);
    const CompiledTransform compiled = CompiledTransform::Compile(t);
    const DomainBounds hull = DomainBounds::Of(t);
    EXPECT_EQ(compiled.bounds().lo, hull.lo);
    EXPECT_EQ(compiled.bounds().hi, hull.hi);
    for (AttrValue x : {hull.lo - 100.0, hull.lo - 0.5, hull.lo,
                        0.5 * (hull.lo + hull.hi), hull.hi, hull.hi + 0.5,
                        hull.hi + 100.0}) {
      EXPECT_TRUE(BitEqual(check::ReferenceEncodeClamped(t, x),
                           compiled.EncodeClamped(x)))
          << "clamp x=" << x << " anti=" << global_anti;
      EXPECT_TRUE(BitEqual(check::ReferenceEncodeExtended(t, x),
                           compiled.EncodeExtended(x)))
          << "extend x=" << x << " anti=" << global_anti;
    }
  }
}

/// Per-policy regression: every cell of a release through the compiled
/// kernels under a prefix-fitted key is bit-identical to the interpreted
/// reference — PiecewiseTransform::Apply inside the fitted hull, the
/// reference OOD encoders outside it.
TEST(CompiledStreamTest, StreamedReleaseMatchesInterpretedPerPolicy) {
  constexpr size_t kPrefixRows = 60;
  Dataset d({"x", "y"}, {"a", "b"});
  Dataset prefix({"x", "y"}, {"a", "b"});
  for (size_t i = 0; i < kPrefixRows; ++i) {
    const std::vector<AttrValue> row = {static_cast<AttrValue>(10 + i % 20),
                                        static_cast<AttrValue>(5 + (i * 7) % 11)};
    d.AddRow(row, static_cast<ClassId>(i % 2));
    prefix.AddRow(row, static_cast<ClassId>(i % 2));
  }
  d.AddRow({120, 7}, 0);   // beyond the prefix hull
  d.AddRow({-40, 8}, 1);
  d.AddRow({121, 9}, 0);
  Rng prefix_rng(5);
  const TransformPlan prefix_plan =
      TransformPlan::Create(prefix, PiecewiseOptions{}, prefix_rng);

  stream::StreamOptions options;
  options.chunk_rows = 10;
  for (const stream::OodPolicy policy :
       {stream::OodPolicy::kClamp, stream::OodPolicy::kExtendPiece}) {
    options.ood_policy = policy;
    stream::DatasetChunkReader reader(&d);
    stream::DatasetChunkWriter writer;
    auto plan = stream::StreamingCustodian::ReleaseWithPlan(
        reader, writer, prefix_plan, options);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    const Dataset& out = writer.collected();
    ASSERT_EQ(out.NumRows(), d.NumRows());
    for (size_t a = 0; a < d.NumAttributes(); ++a) {
      const PiecewiseTransform& t = prefix_plan.transform(a);
      for (size_t r = 0; r < d.NumRows(); ++r) {
        const AttrValue x = d.Value(r, a);
        AttrValue want = t.Apply(x);
        if (!DomainBounds::Of(t).Contains(x)) {
          want = policy == stream::OodPolicy::kClamp
                     ? check::ReferenceEncodeClamped(t, x)
                     : check::ReferenceEncodeExtended(t, x);
        }
        EXPECT_TRUE(BitEqual(out.Value(r, a), want))
            << stream::ToString(policy) << " row " << r << " attr " << a;
      }
    }
  }
  // kReject: the first offending row is reported, naming the value.
  options.ood_policy = stream::OodPolicy::kReject;
  stream::DatasetChunkReader reader(&d);
  stream::DatasetChunkWriter writer;
  auto rejected = stream::StreamingCustodian::ReleaseWithPlan(
      reader, writer, prefix_plan, options);
  ASSERT_FALSE(rejected.ok());
  const std::string message = rejected.status().ToString();
  EXPECT_NE(message.find("stream row 61: attribute 'x' = 120"),
            std::string::npos)
      << message;
}

// -------------------------------------------------- serialize round trip

TEST(CompiledPlanTest, SerializeLoadCompileRoundTrip) {
  const Dataset data = CovtypeLikeData();
  Rng rng(3);
  const TransformPlan plan =
      TransformPlan::Create(data, PiecewiseOptions{}, rng);
  auto reloaded = ParsePlan(SerializePlan(plan));
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  const CompiledPlan compiled = CompiledPlan::Compile(reloaded.value());
  ASSERT_EQ(compiled.NumAttributes(), plan.NumAttributes());
  for (size_t a = 0; a < data.NumAttributes(); ++a) {
    for (AttrValue v : data.ActiveDomain(a)) {
      EXPECT_TRUE(BitEqual(plan.Encode(a, v), compiled.transform(a).Apply(v)))
          << "attr " << a << " value " << v;
    }
  }
}

// ---------------------------------------------- batched dataset encoding

TEST(CompiledPlanTest, EncodeDatasetMatchesInterpretedAtEveryThreadCount) {
  const Dataset data = CovtypeLikeData(700, /*seed=*/37);
  Rng rng(5);
  const TransformPlan plan =
      TransformPlan::Create(data, PiecewiseOptions{}, rng);
  const Dataset interpreted = plan.EncodeDataset(data);
  const CompiledPlan compiled = CompiledPlan::Compile(plan);
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{7}}) {
    const Dataset released =
        compiled.EncodeDataset(data, ExecPolicy{threads});
    EXPECT_EQ(ToCsvString(released), ToCsvString(interpreted))
        << threads << " threads";
  }
}

TEST(CompiledPlanTest, EncodeColumnMatchesApplyColumn) {
  const Dataset data = CovtypeLikeData(300, /*seed=*/43);
  Rng rng(9);
  const TransformPlan plan =
      TransformPlan::Create(data, PiecewiseOptions{}, rng);
  const CompiledPlan compiled = CompiledPlan::Compile(plan);
  const auto& in = data.Column(1);
  std::vector<AttrValue> serial(in.size()), parallel(in.size());
  compiled.transform(1).ApplyColumn(in.data(), serial.data(), in.size());
  compiled.EncodeColumn(1, in.data(), parallel.data(), in.size(),
                        ExecPolicy{4});
  for (size_t i = 0; i < in.size(); ++i) {
    EXPECT_TRUE(BitEqual(serial[i], parallel[i])) << "row " << i;
    EXPECT_TRUE(BitEqual(plan.Encode(1, in[i]), serial[i])) << "row " << i;
  }
}

TEST(CompiledTransformTest, InverseColumnDecodesBatches) {
  const Dataset data = CovtypeLikeData(200, /*seed=*/47);
  const AttributeSummary summary = SummaryOf(data);
  PiecewiseOptions options;
  Rng rng(15);
  const PiecewiseTransform t =
      PiecewiseTransform::Create(summary, options, rng);
  const CompiledTransform compiled = CompiledTransform::Compile(t);
  const auto& vals = summary.values();
  std::vector<AttrValue> encoded(vals.size()), decoded(vals.size());
  compiled.ApplyColumn(vals.data(), encoded.data(), vals.size());
  compiled.InverseColumn(encoded.data(), decoded.data(), encoded.size());
  for (size_t i = 0; i < vals.size(); ++i) {
    EXPECT_TRUE(BitEqual(t.Inverse(encoded[i]), decoded[i])) << "i=" << i;
  }
}

// ------------------------------------------------------------ dataset

TEST(DatasetTest, ColumnAdoptingConstructorValidates) {
  Schema schema({"x", "y"}, {"a", "b"});
  std::vector<std::vector<AttrValue>> columns = {{1.0, 2.0}, {3.0, 4.0}};
  const Dataset d(schema, columns, {0, 1});
  EXPECT_EQ(d.NumRows(), 2u);
  EXPECT_EQ(d.Value(1, 0), 2.0);
  EXPECT_EQ(d.Value(0, 1), 3.0);
  EXPECT_EQ(d.Label(1), 1);
}

}  // namespace
}  // namespace popp
