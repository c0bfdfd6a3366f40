#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "check/shrink.h"
#include "data/cols.h"
#include "data/dataset.h"
#include "temp_path.h"
#include "transform/plan.h"
#include "transform/serialize.h"
#include "tree/compare.h"
#include "tree/serialize.h"
#include "util/rng.h"

/// \file
/// Golden-file coverage of the persisted formats. The fixtures under
/// tests/data/ are committed bytes; parse → serialize must reproduce them
/// exactly. A failure here means the on-disk format changed — which silently
/// invalidates every custodian key and reproducer recipe in the wild — so a
/// deliberate format change must regenerate the fixtures *and* bump the
/// format version line.

namespace popp {
namespace {

std::string DataDir() { return POPP_TEST_DATA_DIR; }

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open fixture " << path;
  std::ostringstream oss;
  oss << in.rdbuf();
  return oss.str();
}

TEST(SerializeGolden, PlanRoundTripIsByteStable) {
  const std::string bytes = ReadFile(DataDir() + "/golden_plan.key");
  ASSERT_FALSE(bytes.empty());
  auto plan = ParsePlan(bytes);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(SerializePlan(plan.value()), bytes);
}

TEST(SerializeGolden, TreeRoundTripIsByteStable) {
  const std::string bytes = ReadFile(DataDir() + "/golden_tree.txt");
  ASSERT_FALSE(bytes.empty());
  auto tree = ParseTree(bytes);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_EQ(SerializeTree(tree.value()), bytes);
  // The reparse of the re-serialization is the same tree, not merely the
  // same bytes.
  auto again = ParseTree(SerializeTree(tree.value()));
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(ExactlyEqual(tree.value(), again.value()));
}

TEST(SerializeGolden, ReproducerRecipeRoundTripIsByteStable) {
  const std::string recipe_path = DataDir() + "/golden_repro.recipe";
  const std::string recipe_bytes = ReadFile(recipe_path);
  const std::string csv_bytes = ReadFile(DataDir() + "/golden_repro.csv");
  auto repro = check::LoadReproducer(recipe_path);
  ASSERT_TRUE(repro.ok()) << repro.status().ToString();

  // Rewrite under the same base names; the bytes must match the fixtures.
  const std::string dir = testing::TempDir();
  const std::string out_csv = dir + "/golden_repro.csv";
  const std::string out_recipe = dir + "/golden_repro.recipe";
  const Status written =
      check::WriteReproducer(repro.value(), out_csv, out_recipe);
  ASSERT_TRUE(written.ok()) << written.ToString();
  EXPECT_EQ(ReadFile(out_recipe), recipe_bytes);
  EXPECT_EQ(ReadFile(out_csv), csv_bytes);
  std::remove(out_csv.c_str());
  std::remove(out_recipe.c_str());
}

TEST(SerializeGolden, RecipeCountsAndSeedAreWholeDecimals) {
  const std::string golden = ReadFile(DataDir() + "/golden_repro.recipe");
  const std::string csv = TempPath("repro.csv");
  const std::string recipe = TempPath("repro.recipe");
  std::ofstream(csv, std::ios::binary)
      << ReadFile(DataDir() + "/golden_repro.csv");
  // The golden recipe with one line swapped, naming the copied CSV.
  const auto load = [&](const std::string& from, const std::string& to) {
    std::string text = golden;
    const auto swap = [&text](const std::string& a, const std::string& b) {
      const size_t at = text.find(a);
      EXPECT_NE(at, std::string::npos) << a;
      if (at != std::string::npos) text.replace(at, a.size(), b);
    };
    swap("csv golden_repro.csv", "csv " + csv.substr(csv.rfind('/') + 1));
    if (!from.empty()) swap(from, to);
    std::ofstream(recipe, std::ios::binary) << text;
    return check::LoadReproducer(recipe);
  };
  const auto loaded = load("", "");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().c.plan_seed, 11351871657318728186u);

  struct BadCase {
    const char* from;
    const char* to;
    const char* expect;  ///< required diagnostic substring
  };
  const BadCase cases[] = {
      // strtoull read this as 2^64 - 1 and replayed under that seed.
      {"plan_seed 11351871657318728186", "plan_seed -1", "plan_seed"},
      // strtod read these as counts, and the name lists sized to them
      // aborted the replay (std::length_error).
      {"attributes 2 a0", "attributes 1e18 a0", "attribute count"},
      {"attributes 2 a0", "attributes 1000000000000000000 a0",
       "attribute name, got end of input"},
      {"classes 3 c0", "classes 3.0 c0", "class count"},
      {"max_depth 20", "max_depth 2e1", "max_depth"},
  };
  for (const BadCase& c : cases) {
    const auto refused = load(c.from, c.to);
    ASSERT_FALSE(refused.ok()) << c.to;
    EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument) << c.to;
    EXPECT_NE(refused.status().message().find(c.expect), std::string::npos)
        << refused.status().ToString();
  }
  std::remove(csv.c_str());
  std::remove(recipe.c_str());
}

// ------------------------------------------- corrupt-key corpus --------

/// The committed corruption corpus: each file is the v2 golden plan with
/// one specific kind of damage, and the loader must refuse it with
/// kDataLoss and the exact diagnostic family a custodian would need to
/// understand what happened to their key.
TEST(SerializeGolden, CorruptPlanCorpusIsRejectedWithDataLoss) {
  struct CorruptCase {
    const char* file;
    const char* expect;  ///< required diagnostic substring
  };
  const CorruptCase cases[] = {
      // Cut mid-payload: the footer line is gone entirely.
      {"plan_truncated.key", "requires an integrity footer"},
      // One digit of a piece endpoint changed: the payload hashes wrong.
      {"plan_bitflip.key", "integrity checksum mismatch"},
      // Footer checksum altered, payload intact: the footer lies.
      {"plan_bad_crc.key", "integrity checksum mismatch"},
      // Not a popp document at all (binary magic of another format).
      {"plan_garbage.key", "expected 'popp-plan'"},
  };
  for (const auto& c : cases) {
    const std::string bytes =
        ReadFile(DataDir() + "/corrupt/" + std::string(c.file));
    ASSERT_FALSE(bytes.empty()) << c.file;
    auto plan = ParsePlan(bytes);
    ASSERT_FALSE(plan.ok()) << c.file << " parsed despite the corruption";
    EXPECT_EQ(plan.status().code(), StatusCode::kDataLoss) << c.file;
    EXPECT_NE(plan.status().message().find(c.expect), std::string::npos)
        << c.file << " diagnostic: " << plan.status().message();
  }
}

TEST(SerializeGolden, LegacyV1PlanWithoutFooterStillLoads) {
  auto plan = LoadPlan(DataDir() + "/corrupt/plan_v1_legacy.key");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // Re-saving upgrades the key to the checksummed v2 format.
  const std::string upgraded = SerializePlan(plan.value());
  EXPECT_EQ(upgraded.rfind("popp-plan v2\n", 0), 0u);
  EXPECT_NE(upgraded.find("\nfooter "), std::string::npos);
}

TEST(SerializeGolden, CorruptTreeCorpusIsRejectedWithDataLoss) {
  const std::string bytes =
      ReadFile(DataDir() + "/corrupt/tree_truncated.txt");
  ASSERT_FALSE(bytes.empty());
  auto tree = ParseTree(bytes);
  ASSERT_FALSE(tree.ok());
  EXPECT_EQ(tree.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(tree.status().message().find("integrity footer"),
            std::string::npos)
      << tree.status().message();
}

TEST(SerializeGolden, LegacyV1TreeWithoutFooterStillLoads) {
  auto tree = LoadTree(DataDir() + "/corrupt/tree_v1_legacy.txt");
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_EQ(SerializeTree(tree.value()).rfind("popp-tree v2\n", 0), 0u);
}

// ------------------------------------------- popp-cols golden ----------

/// The dataset golden_small.cols was generated from. Any layout change —
/// header field order, extent framing, dictionary ordering, CRC discipline
/// — turns this byte comparison into a visible diff instead of a silent
/// format break, and must bump the container version.
Dataset GoldenColsDataset() {
  Dataset d({"elev", "slope"}, {"a", "b"});
  for (int i = 0; i < 8; ++i) {
    d.AddRow({static_cast<double>(i % 3), i * 1.5},
             static_cast<ClassId>(i % 2));
  }
  return d;
}

TEST(SerializeGolden, ColsGoldenContainerIsBytePinned) {
  const std::string bytes = ReadFile(DataDir() + "/golden_small.cols");
  ASSERT_FALSE(bytes.empty());
  // Serializing the reference dataset reproduces the committed bytes.
  const Dataset d = GoldenColsDataset();
  EXPECT_EQ(SerializeCols(d), bytes);
  // Parse -> serialize is the identity on the fixture too.
  auto parsed = ParseCols(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed.value() == d);
  EXPECT_EQ(SerializeCols(parsed.value()), bytes);
}

TEST(SerializeGolden, ColsGoldenLayoutFactsHold) {
  const std::string bytes = ReadFile(DataDir() + "/golden_small.cols");
  ASSERT_GE(bytes.size(), 64u);
  EXPECT_EQ(bytes.substr(0, 8), "poppcols");
  auto view = ColsView::Open(bytes);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(view.value().num_rows(), 8u);
  EXPECT_EQ(view.value().num_attributes(), 2u);
  // elev has 3 distinct values (dict); slope is all-distinct (raw).
  EXPECT_TRUE(view.value().is_dict(0));
  EXPECT_FALSE(view.value().is_dict(1));
}

// ------------------------------------------- endpoint exactness --------

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Adversarial attribute values: the smallest denormal, a value needing
/// all 17 digits, a nextafter pair (adjacent doubles), and huge-magnitude
/// endpoints. Every one must survive serialize → parse bit-for-bit.
std::vector<double> AdversarialValues() {
  return {-1e150,
          -5e-324,
          0.0,
          5e-324,
          1e-300,
          1.0,
          std::nextafter(1.0, 2.0),
          3.141592653589793,
          0.1,
          1e150};
}

Dataset AdversarialDataset() {
  Dataset d({"x"}, {"a", "b"});
  const auto values = AdversarialValues();
  for (size_t i = 0; i < values.size(); ++i) {
    d.AddRow({values[i]}, static_cast<ClassId>(i % 2));
  }
  return d;
}

TEST(SerializeGolden, AdversarialEndpointsRoundTripBitExact) {
  const Dataset d = AdversarialDataset();
  for (const bool anti : {false, true}) {
    PiecewiseOptions options;
    options.policy = BreakpointPolicy::kNone;
    options.global_anti_monotone = anti;
    Rng rng(7);
    const TransformPlan plan = TransformPlan::Create(d, options, rng);
    const std::string text = SerializePlan(plan);
    auto reparsed = ParsePlan(text);
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
    EXPECT_EQ(SerializePlan(reparsed.value()), text);
    const PiecewiseTransform& before = plan.transform(0);
    const PiecewiseTransform& after = reparsed.value().transform(0);
    ASSERT_EQ(after.NumPieces(), before.NumPieces());
    for (size_t i = 0; i < before.NumPieces(); ++i) {
      EXPECT_EQ(Bits(after.piece(i).domain_lo), Bits(before.piece(i).domain_lo));
      EXPECT_EQ(Bits(after.piece(i).domain_hi), Bits(before.piece(i).domain_hi));
      EXPECT_EQ(Bits(after.piece(i).out_lo), Bits(before.piece(i).out_lo));
      EXPECT_EQ(Bits(after.piece(i).out_hi), Bits(before.piece(i).out_hi));
    }
    // And the reloaded key encodes every active-domain value bit-identically
    // — the property a custodian actually depends on.
    for (const double v : AdversarialValues()) {
      EXPECT_EQ(Bits(after.Apply(v)), Bits(before.Apply(v))) << "value " << v;
    }
  }
}

TEST(SerializeGolden, ManyPieceEndpointsRoundTripBitExact) {
  // ChooseBP breakpoints land on arbitrary midpoints between adversarial
  // values, so the serialized endpoints get irrational-looking decimals.
  Dataset d({"x", "y"}, {"a", "b"});
  Rng data_rng(3);
  for (int i = 0; i < 120; ++i) {
    d.AddRow({data_rng.Uniform(-1e3, 1e3), data_rng.Uniform(0.0, 1e-5)},
             static_cast<ClassId>(data_rng.Bernoulli(0.5) ? 1 : 0));
  }
  PiecewiseOptions options;
  options.policy = BreakpointPolicy::kChooseBP;
  options.min_breakpoints = 10;
  Rng rng(11);
  const TransformPlan plan = TransformPlan::Create(d, options, rng);
  const std::string text = SerializePlan(plan);
  auto reparsed = ParsePlan(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(SerializePlan(reparsed.value()), text);
  for (size_t attr = 0; attr < plan.NumAttributes(); ++attr) {
    const PiecewiseTransform& before = plan.transform(attr);
    const PiecewiseTransform& after = reparsed.value().transform(attr);
    ASSERT_EQ(after.NumPieces(), before.NumPieces());
    for (size_t i = 0; i < before.NumPieces(); ++i) {
      EXPECT_EQ(Bits(after.piece(i).domain_lo),
                Bits(before.piece(i).domain_lo));
      EXPECT_EQ(Bits(after.piece(i).domain_hi),
                Bits(before.piece(i).domain_hi));
      EXPECT_EQ(Bits(after.piece(i).out_lo), Bits(before.piece(i).out_lo));
      EXPECT_EQ(Bits(after.piece(i).out_hi), Bits(before.piece(i).out_hi));
    }
  }
}

TEST(SerializeGolden, ParserAcceptsHexFloatEndpoints) {
  const Dataset d = AdversarialDataset();
  PiecewiseOptions options;
  options.policy = BreakpointPolicy::kNone;
  Rng rng(13);
  const TransformPlan plan = TransformPlan::Create(d, options, rng);
  std::string text = SerializePlan(plan);
  // This test rewrites payload bytes, which the checksummed v2 format
  // rightly rejects — so hand-edit a v1 document (no integrity footer).
  const size_t footer = text.rfind("\nfooter ");
  ASSERT_NE(footer, std::string::npos);
  text = text.substr(0, footer + 1);
  const std::string v2_header = "popp-plan v2";
  ASSERT_EQ(text.rfind(v2_header, 0), 0u);
  text.replace(0, v2_header.size(), "popp-plan v1");
  // Respell the first piece's domain_lo in C99 hex-float form everywhere it
  // occurs; the parse must land on the identical bits.
  const double dlo = plan.transform(0).piece(0).domain_lo;
  char dec[48];
  std::snprintf(dec, sizeof(dec), "%.17g", dlo);
  char hex[48];
  std::snprintf(hex, sizeof(hex), "%a", dlo);
  size_t pos = 0;
  size_t replaced = 0;
  while ((pos = text.find(dec, pos)) != std::string::npos) {
    text.replace(pos, std::strlen(dec), hex);
    pos += std::strlen(hex);
    replaced++;
  }
  ASSERT_GE(replaced, 1u);
  auto reparsed = ParsePlan(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(Bits(reparsed.value().transform(0).piece(0).domain_lo),
            Bits(dlo));
  // Re-serialization normalizes back to the canonical decimal bytes.
  EXPECT_EQ(SerializePlan(reparsed.value()), SerializePlan(plan));
}

}  // namespace
}  // namespace popp
