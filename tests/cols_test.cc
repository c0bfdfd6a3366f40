#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "data/cols.h"
#include "data/csv.h"
#include "fault/file.h"
#include "fault/mmap.h"
#include "serve/ops.h"
#include "stream/chunk_io.h"
#include "stream/cols_io.h"
#include "stream/streaming_custodian.h"
#include "temp_path.h"
#include "transform/compiled.h"
#include "transform/plan.h"
#include "transform/serialize.h"
#include "util/crc64.h"
#include "util/rng.h"

/// \file
/// popp-cols v1 coverage: bit-exact round trips (including the values that
/// bite CSV), the dict-vs-raw encoding decision, the chunked reader's
/// mmap/buffered seams, and the acceptance contract of the format switch —
/// a streamed release fed from popp-cols is byte-identical to the batch
/// release at every chunk size x thread count.

namespace popp {
namespace {

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

Dataset SmallDataset() {
  Dataset d({"x", "y"}, {"a", "b", "c"});
  Rng rng(17);
  for (int i = 0; i < 60; ++i) {
    d.AddRow({rng.Uniform(-50.0, 50.0), static_cast<double>(i % 7)},
             static_cast<ClassId>(i % 3));
  }
  return d;
}

// ------------------------------------------------------------------------
// Round trips

TEST(ColsRoundTrip, SmallDatasetIsIdentity) {
  const Dataset d = SmallDataset();
  auto back = ParseCols(SerializeCols(d));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back.value() == d);
}

TEST(ColsRoundTrip, SerializationIsByteStable) {
  const Dataset d = SmallDataset();
  const std::string bytes = SerializeCols(d);
  auto back = ParseCols(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(SerializeCols(back.value()), bytes);
}

TEST(ColsRoundTrip, AdversarialValuesRoundTripBitExact) {
  // The values that historically bite text formats: denormals, adjacent
  // doubles, negative zero, NaN (with a payload), infinities. CSV cannot
  // carry the last two; the binary container must carry all of them.
  const double quiet_nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> values = {
      -std::numeric_limits<double>::infinity(),
      -1e150,
      -5e-324,
      -0.0,
      0.0,
      5e-324,
      1e-300,
      1.0,
      std::nextafter(1.0, 2.0),
      3.141592653589793,
      0.1,
      1e150,
      std::numeric_limits<double>::infinity(),
      quiet_nan,
      -quiet_nan,
  };
  Dataset d({"x"}, {"a", "b"});
  for (size_t i = 0; i < values.size(); ++i) {
    d.AddRow({values[i]}, static_cast<ClassId>(i % 2));
  }
  auto back = ParseCols(SerializeCols(d));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back.value().NumRows(), d.NumRows());
  for (size_t r = 0; r < d.NumRows(); ++r) {
    EXPECT_EQ(Bits(back.value().Value(r, 0)), Bits(d.Value(r, 0)))
        << "row " << r;
    EXPECT_EQ(back.value().Label(r), d.Label(r)) << "row " << r;
  }
  // -0.0 and 0.0 are distinct dictionary entries, not collapsed.
  EXPECT_NE(Bits(back.value().Value(3, 0)), Bits(back.value().Value(4, 0)));
}

TEST(ColsRoundTrip, DictionaryCodesFollowValueOrderNotArrivalOrder) {
  // The writer meets a column's values out of order (and -0.0 apart from
  // 0.0); every row's code must still name its own value in the sorted
  // dictionary.
  const std::vector<double> values = {7.5, -2.0, 0.0, 1e9, -0.0, 3.0};
  Dataset d({"x"}, {"a"});
  for (size_t i = 0; i < 60; ++i) {
    d.AddRow({values[(i * 5) % values.size()]}, 0);
  }
  const std::string bytes = SerializeCols(d);
  auto view = ColsView::Open(bytes);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_TRUE(view.value().is_dict(0));
  auto back = ParseCols(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  for (size_t r = 0; r < d.NumRows(); ++r) {
    EXPECT_EQ(Bits(back.value().Value(r, 0)), Bits(d.Value(r, 0)))
        << "row " << r;
  }
}

TEST(ColsRoundTrip, ZeroRowDatasetKeepsTheSchema) {
  Dataset d({"x", "y", "z"}, {"only"});
  auto back = ParseCols(SerializeCols(d));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().NumRows(), 0u);
  EXPECT_EQ(back.value().NumAttributes(), 3u);
  EXPECT_TRUE(back.value() == d);
}

TEST(ColsRoundTrip, EmptyColumnsDatasetRoundTrips) {
  // Zero attributes, labels only — every extent except the columns.
  Dataset d(std::vector<std::string>{}, {"a", "b"});
  d.AddRow({}, 0);
  d.AddRow({}, 1);
  d.AddRow({}, 1);
  auto back = ParseCols(SerializeCols(d));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back.value() == d);
}

TEST(ColsRoundTrip, DictVersusRawChoiceFollowsSize) {
  // 120 rows: column 0 has 6 distinct values (dict wins), column 1 is
  // all-distinct (raw wins: 8 + 120*8 + 120 > 120*8).
  Dataset d({"lowcard", "unique"}, {"a"});
  for (int i = 0; i < 120; ++i) {
    d.AddRow({static_cast<double>(i % 6), i * 1.25}, 0);
  }
  ColsStats stats;
  const std::string bytes = SerializeCols(d, &stats);
  EXPECT_EQ(stats.dict_columns, 1u);
  EXPECT_EQ(stats.raw_columns, 1u);
  EXPECT_EQ(stats.bytes, bytes.size());
  auto view = ColsView::Open(bytes);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_TRUE(view.value().is_dict(0));
  EXPECT_FALSE(view.value().is_dict(1));
}

TEST(ColsRoundTrip, SchemaNamesWithCsvMetacharactersSurvive) {
  // Names are length-prefixed binary, so commas, quotes and newlines need
  // no escaping at all.
  Dataset d({"a,b", "c\"d"}, {"class,with,commas", "line\nbreak"});
  d.AddRow({1.0, 2.0}, 0);
  d.AddRow({3.0, 4.0}, 1);
  auto back = ParseCols(SerializeCols(d));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back.value() == d);
}

// ------------------------------------------------------------------------
// Hand-laid containers: layouts SerializeCols never writes

/// One column of a hand-laid container.
struct ColumnLayout {
  bool dict = false;
  std::vector<double> raw;         ///< raw: one value per row
  std::vector<double> dictionary;  ///< dict: entries, in any order
  std::vector<uint32_t> codes;     ///< dict: one code per row
  uint8_t code_width = 1;          ///< dict: 1, 2 or 4
};

/// A container laid out by hand: any code widths, dictionaries with
/// unused, repeated or unsorted entries, dict or raw whatever the sizes.
struct ContainerLayout {
  std::vector<std::string> attributes;
  std::vector<std::string> classes;
  std::vector<uint32_t> labels;  ///< one code per row
  uint8_t label_width = 1;
  std::vector<ColumnLayout> columns;
};

void PutLe(std::string& out, uint64_t v, size_t bytes) {
  for (size_t i = 0; i < bytes; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

/// Writes `layout` as a popp-cols v1 container with correct checksums.
std::string WriteLayout(const ContainerLayout& layout) {
  struct Extent {
    uint32_t kind;
    uint32_t attr;
    std::string payload;
  };
  std::vector<Extent> extents;
  std::string schema;
  for (const auto* names : {&layout.attributes, &layout.classes}) {
    PutLe(schema, names->size(), 4);
    for (const std::string& name : *names) {
      PutLe(schema, name.size(), 4);
      schema += name;
    }
  }
  extents.push_back({1, 0, schema});
  std::string labels(1, static_cast<char>(layout.label_width));
  labels.append(7, '\0');
  for (const uint32_t code : layout.labels) {
    PutLe(labels, code, layout.label_width);
  }
  extents.push_back({2, 0, labels});
  for (size_t a = 0; a < layout.columns.size(); ++a) {
    const ColumnLayout& column = layout.columns[a];
    std::string payload;
    if (column.dict) {
      PutLe(payload, column.dictionary.size(), 4);
      payload.push_back(static_cast<char>(column.code_width));
      payload.append(3, '\0');
      for (const double v : column.dictionary) PutLe(payload, Bits(v), 8);
      for (const uint32_t code : column.codes) {
        PutLe(payload, code, column.code_width);
      }
    } else {
      for (const double v : column.raw) PutLe(payload, Bits(v), 8);
    }
    extents.push_back(
        {column.dict ? 4u : 3u, static_cast<uint32_t>(a), payload});
  }
  std::string body;
  std::string dir;
  for (const Extent& extent : extents) {
    const uint64_t crc = Crc64(extent.payload);
    PutLe(dir, 64 + body.size(), 8);
    PutLe(dir, extent.payload.size(), 8);
    PutLe(dir, extent.kind, 4);
    PutLe(dir, extent.attr, 4);
    PutLe(dir, crc, 8);
    body += extent.payload;
    PutLe(body, extent.payload.size(), 8);
    PutLe(body, crc, 8);
  }
  std::string out = "poppcols";
  PutLe(out, 1, 4);
  PutLe(out, 64, 4);
  PutLe(out, layout.labels.size(), 8);
  PutLe(out, layout.attributes.size(), 4);
  PutLe(out, layout.classes.size(), 4);
  PutLe(out, 64 + body.size(), 8);
  PutLe(out, extents.size(), 4);
  PutLe(out, 0, 4);
  PutLe(out, 64 + body.size() + dir.size() + 16, 8);
  PutLe(out, Crc64(out), 8);
  out += body;
  out += dir;
  PutLe(out, dir.size(), 8);
  PutLe(out, Crc64(dir), 8);
  return out;
}

ColumnLayout DictColumn(std::vector<double> dictionary,
                        std::vector<uint32_t> codes, uint8_t code_width = 1) {
  ColumnLayout column;
  column.dict = true;
  column.dictionary = std::move(dictionary);
  column.codes = std::move(codes);
  column.code_width = code_width;
  return column;
}

ColumnLayout RawColumn(std::vector<double> values) {
  ColumnLayout column;
  column.raw = std::move(values);
  return column;
}

/// One attribute "x", classes "a" and "b", labels alternating over `rows`.
ContainerLayout OneColumn(ColumnLayout column, size_t rows) {
  ContainerLayout layout;
  layout.attributes = {"x"};
  layout.classes = {"a", "b"};
  for (size_t r = 0; r < rows; ++r) {
    layout.labels.push_back(static_cast<uint32_t>(r % 2));
  }
  layout.columns = {std::move(column)};
  return layout;
}

void Identity(size_t, const AttrValue* in, AttrValue* out, size_t n) {
  std::copy(in, in + n, out);
}

/// An injective map that moves every value: x -> 3x + 1.
void Affine(size_t, const AttrValue* in, AttrValue* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = 3 * in[i] + 1;
}

/// A map whose images collide: x -> floor(x / 4).
void Collapse(size_t, const AttrValue* in, AttrValue* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = std::floor(in[i] / 4);
}

/// Sends 1 to -0.0 and 2 to 0.0, images equal under == but not in bits.
void SignedZeros(size_t, const AttrValue* in, AttrValue* out, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = in[i] == 1 ? -0.0 : in[i] == 2 ? 0.0 : in[i];
  }
}

/// The composition ColsView::SerializeMapped replaces: materialize every
/// row, map each column, serialize.
std::string MaterializedMapped(const std::string& bytes,
                               const ColumnMap& map) {
  const Dataset data = ParseCols(bytes).value();
  std::vector<std::vector<AttrValue>> columns;
  for (size_t a = 0; a < data.NumAttributes(); ++a) {
    std::vector<AttrValue> column = data.Column(a);
    map(a, column.data(), column.data(), column.size());
    columns.push_back(std::move(column));
  }
  return SerializeCols(Dataset(data.schema(), std::move(columns),
                               data.labels()));
}

/// SerializeMapped of the laid-out container; fails the test if Open
/// refuses it or the bytes differ from the materialized composition.
std::string ExpectMappedMatches(const ContainerLayout& layout,
                                const ColumnMap& map) {
  const std::string bytes = WriteLayout(layout);
  auto view = ColsView::Open(bytes);
  EXPECT_TRUE(view.ok()) << view.status().ToString();
  if (!view.ok()) return "";
  const std::string mapped = view.value().SerializeMapped(map);
  EXPECT_EQ(mapped, MaterializedMapped(bytes, map));
  return mapped;
}

TEST(ColsLayout, CanonicalLayoutIsSerializeColsBytes) {
  // The test writer lays out exactly what SerializeCols writes when given
  // SerializeCols' own choices: sorted dictionaries, canonical widths.
  Dataset d({"lowcard", "unique"}, {"a", "b"});
  ContainerLayout layout;
  layout.attributes = {"lowcard", "unique"};
  layout.classes = {"a", "b"};
  ColumnLayout lowcard = DictColumn({0, 1, 2}, {});
  ColumnLayout unique;
  for (uint32_t r = 0; r < 30; ++r) {
    d.AddRow({static_cast<double>(r % 3), r * 1.5}, r % 2);
    layout.labels.push_back(r % 2);
    lowcard.codes.push_back(r % 3);
    unique.raw.push_back(r * 1.5);
  }
  layout.columns = {lowcard, unique};
  EXPECT_EQ(WriteLayout(layout), SerializeCols(d));
}

TEST(ColsMapped, UnusedEntriesStayOutOfTheReleasedDictionary) {
  // Entries 1 and 3 are named by no row; their images (and, under the
  // identity, the entries themselves) must not appear in the release,
  // whose dictionary holds the images of the two used entries only.
  std::vector<uint32_t> codes;
  for (uint32_t r = 0; r < 40; ++r) codes.push_back(r % 2 == 0 ? 0 : 2);
  const ContainerLayout layout =
      OneColumn(DictColumn({5, 100, 9, -7}, codes), 40);
  for (const ColumnMap& map : {ColumnMap(Identity), ColumnMap(Affine)}) {
    const std::string mapped = ExpectMappedMatches(layout, map);
    auto view = ColsView::Open(mapped);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    EXPECT_TRUE(view.value().is_dict(0));
    EXPECT_EQ(view.value().dict_size(0), 2u);
  }
}

TEST(ColsMapped, OverWideCodesAreReemittedAtTheCanonicalWidth) {
  // Labels at width 4 for two classes and dictionary codes at widths 2
  // and 4 for three entries: the release uses width 1 throughout.
  for (const uint8_t width : {uint8_t{2}, uint8_t{4}}) {
    std::vector<uint32_t> codes;
    for (uint32_t r = 0; r < 50; ++r) codes.push_back((r * 7) % 3);
    ContainerLayout layout = OneColumn(DictColumn({3, 1, 2}, codes, width),
                                       50);
    layout.label_width = width;
    ExpectMappedMatches(layout, Affine);
    ExpectMappedMatches(layout, Collapse);
  }
}

TEST(ColsMapped, DictColumnWhoseReleaseMustGoRaw) {
  // Four rows, four distinct entries: 8 + 32 + 4 dictionary bytes against
  // 32 raw, so the release is raw although the container is not.
  const ContainerLayout layout =
      OneColumn(DictColumn({1.5, -2.25, 8, 1e9}, {3, 0, 2, 1}, 4), 4);
  for (const ColumnMap& map : {ColumnMap(Identity), ColumnMap(Affine)}) {
    const std::string mapped = ExpectMappedMatches(layout, map);
    auto view = ColsView::Open(mapped);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    EXPECT_FALSE(view.value().is_dict(0));
  }
}

TEST(ColsMapped, RawColumnWhoseReleaseGoesDict) {
  // A raw column of three repeated values, and one whose map collapses
  // 60 distinct values onto 15: both releases are dictionaries.
  std::vector<double> repeated;
  std::vector<double> distinct;
  for (int r = 0; r < 60; ++r) {
    repeated.push_back(r % 3 - 1.0);
    distinct.push_back(r);
  }
  for (const auto& [values, map] :
       {std::pair<std::vector<double>, ColumnMap>{repeated, Affine},
        std::pair<std::vector<double>, ColumnMap>{distinct, Collapse}}) {
    const std::string mapped =
        ExpectMappedMatches(OneColumn(RawColumn(values), 60), map);
    auto view = ColsView::Open(mapped);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    EXPECT_TRUE(view.value().is_dict(0));
  }
}

TEST(ColsMapped, NegativeAndPositiveZeroAreDeduplicatedByBitPattern) {
  // -0.0 and 0.0 are one value under ==, two in bits: a dictionary that
  // holds both keeps both, and so does a map whose images are both.
  std::vector<uint32_t> codes;
  for (uint32_t r = 0; r < 48; ++r) codes.push_back(r % 4);
  const ContainerLayout zeros =
      OneColumn(DictColumn({0.0, 3.0, -0.0, -3.0}, codes), 48);
  const ContainerLayout ones_and_twos =
      OneColumn(DictColumn({1.0, 2.0, 7.0}, {}), 0);
  ContainerLayout to_zeros = ones_and_twos;
  for (uint32_t r = 0; r < 48; ++r) {
    to_zeros.labels.push_back(r % 2);
    to_zeros.columns[0].codes.push_back(r % 3);
  }
  for (const auto& [layout, map] :
       {std::pair<ContainerLayout, ColumnMap>{zeros, Identity},
        std::pair<ContainerLayout, ColumnMap>{to_zeros, SignedZeros}}) {
    const std::string mapped = ExpectMappedMatches(layout, map);
    // Every row's released bits are its own value's image.
    const Dataset in = ParseCols(WriteLayout(layout)).value();
    const Dataset out = ParseCols(mapped).value();
    ASSERT_EQ(out.NumRows(), in.NumRows());
    for (size_t r = 0; r < in.NumRows(); ++r) {
      AttrValue image = 0;
      const AttrValue value = in.Value(r, 0);
      map(0, &value, &image, 1);
      EXPECT_EQ(Bits(out.Value(r, 0)), Bits(image)) << "row " << r;
    }
  }
}

TEST(ColsMapped, CollidingImagesAndRepeatedEntriesShareOneCode) {
  // An unsorted dictionary with a repeated entry, mapped so that more
  // images collide: the release has one entry per distinct image.
  std::vector<uint32_t> codes;
  for (uint32_t r = 0; r < 64; ++r) codes.push_back((r * 5) % 6);
  const ContainerLayout layout =
      OneColumn(DictColumn({17, 2, 9, 2, 30, 16}, codes, 2), 64);
  ExpectMappedMatches(layout, Identity);
  ExpectMappedMatches(layout, Collapse);
}

TEST(ColsMapped, ZeroRowsAndZeroAttributes) {
  // No rows: dictionary entries exist but none is used, and a raw column
  // is empty. No attributes: labels only.
  ContainerLayout empty = OneColumn(DictColumn({4, 1}, {}, 2), 0);
  empty.attributes = {"x", "y"};
  empty.columns.push_back(RawColumn({}));
  ExpectMappedMatches(empty, Affine);
  ContainerLayout labels_only;
  labels_only.classes = {"a", "b", "c"};
  labels_only.labels = {2, 0, 1, 1};
  labels_only.label_width = 2;
  ExpectMappedMatches(labels_only, Affine);
}

TEST(ColsOpen, LabelCodeOutOfRangeAtEveryWidth) {
  // The last row names class 2 of two, or a code whose only set bits are
  // above the first byte.
  for (const uint8_t width : {uint8_t{1}, uint8_t{2}, uint8_t{4}}) {
    std::vector<uint32_t> bad_codes = {2};
    if (width >= 2) bad_codes.push_back(0x100);
    if (width == 4) bad_codes.push_back(0x1000000);
    for (const uint32_t bad : bad_codes) {
      ContainerLayout layout = OneColumn(DictColumn({1, 2}, {0, 1, 0}), 3);
      layout.label_width = width;
      layout.labels.back() = bad;
      const std::string bytes = WriteLayout(layout);
      auto view = ColsView::Open(bytes);
      ASSERT_FALSE(view.ok()) << "width " << int{width} << " code " << bad;
      EXPECT_EQ(view.status().code(), StatusCode::kDataLoss);
      EXPECT_NE(view.status().message().find("label code out of range"),
                std::string::npos)
          << view.status().ToString();
    }
  }
}

TEST(ColsOpen, DictionaryCodeOutOfRangeAtEveryWidth) {
  for (const uint8_t width : {uint8_t{1}, uint8_t{2}, uint8_t{4}}) {
    std::vector<uint32_t> bad_codes = {3};
    if (width >= 2) bad_codes.push_back(0x100);
    if (width == 4) bad_codes.push_back(0x1000000);
    for (const uint32_t bad : bad_codes) {
      const ContainerLayout layout =
          OneColumn(DictColumn({1, 2, 3}, {0, 2, bad}, width), 3);
      const std::string bytes = WriteLayout(layout);
      auto view = ColsView::Open(bytes);
      ASSERT_FALSE(view.ok()) << "width " << int{width} << " code " << bad;
      EXPECT_EQ(view.status().code(), StatusCode::kDataLoss);
      EXPECT_NE(
          view.status().message().find("dictionary code out of range"),
          std::string::npos)
          << view.status().ToString();
    }
  }
  // The largest code in range is accepted.
  const std::string bytes =
      WriteLayout(OneColumn(DictColumn({1, 2, 3}, {2, 0, 1}, 4), 3));
  auto view = ColsView::Open(bytes);
  EXPECT_TRUE(view.ok()) << view.status().ToString();
}

// ------------------------------------------------------------------------
// The served popp-cols encode against the materialized composition

/// What a popp-cols encode reply was defined as before the dictionary-
/// domain path, for a plan fitted on `fit_on` with `seed`: materialize
/// the request, refuse a non-finite value, encode, serialize.
Result<std::string> ComposedEncode(const std::string& bytes,
                                   const Dataset& fit_on, uint64_t seed) {
  auto data = ParseCols(bytes);
  if (!data.ok()) return data.status();
  POPP_RETURN_IF_ERROR(CheckFiniteValues(data.value()));
  Rng rng(seed);
  const TransformPlan plan =
      TransformPlan::Create(fit_on, PiecewiseOptions{}, rng);
  return SerializeCols(CompiledPlan::Compile(plan).EncodeDataset(data.value()));
}

/// Serves `bytes` as a popp-cols encode on a tenant whose plan for the
/// schema was fitted by a first, cold encode of `warm`.
serve::ReplyBody ServedEncode(const std::string& bytes, const Dataset& warm,
                              uint64_t seed, size_t threads = 1) {
  serve::Workspace workspace("cols", 4);
  serve::RequestBody request;
  request.options = "seed " + std::to_string(seed) + "\nthreads " +
                    std::to_string(threads) + "\n";
  request.dataset = SerializeCols(warm);
  const serve::ReplyBody cold = serve::DispatchOp(
      serve::Tag::kEncode, workspace, request, serve::OpConfig{});
  EXPECT_TRUE(cold.ok()) << cold.text;
  EXPECT_NE(cold.text.find("cold plan"), std::string::npos) << cold.text;
  request.dataset = bytes;
  return serve::DispatchOp(serve::Tag::kEncode, workspace, request,
                           serve::OpConfig{});
}

/// The served reply equals the composition: its bytes from a hot plan,
/// or its error.
void ExpectServedMatchesComposed(const std::string& bytes,
                                 const Dataset& warm, uint64_t seed) {
  const Result<std::string> composed = ComposedEncode(bytes, warm, seed);
  const serve::ReplyBody served = ServedEncode(bytes, warm, seed);
  if (composed.ok()) {
    ASSERT_TRUE(served.ok()) << served.text;
    EXPECT_NE(served.text.find("hot plan, cols reply"), std::string::npos)
        << served.text;
    EXPECT_EQ(served.body, composed.value());
  } else {
    EXPECT_FALSE(served.ok());
    EXPECT_EQ(served.code, composed.status().code());
    EXPECT_EQ(served.text, composed.status().ToString());
  }
}

/// Two attributes over the values 0..11 and 100..111, 90 rows.
Dataset WarmDataset() {
  Dataset d({"x", "y"}, {"a", "b"});
  for (int r = 0; r < 90; ++r) {
    d.AddRow({static_cast<double>(r % 12),
              static_cast<double>(100 + (r * 7) % 12)},
             static_cast<ClassId>(r % 2));
  }
  return d;
}

ContainerLayout TwoColumns(ColumnLayout x, ColumnLayout y, size_t rows) {
  ContainerLayout layout = OneColumn(std::move(x), rows);
  layout.attributes = {"x", "y"};
  layout.columns.push_back(std::move(y));
  return layout;
}

TEST(ColsServeEncode, WarmPlanFittedOnOtherDataReproducesTheComposition) {
  // The plan was fitted on x in 0..11; this container holds x in 6..29,
  // so unseen values collide with fitted images, as today's warm plans do
  // (the open PlanKey item). The reply reproduces those bytes exactly.
  std::vector<uint32_t> x_codes;
  std::vector<double> y_values;
  for (uint32_t r = 0; r < 70; ++r) {
    x_codes.push_back((r * 11) % 24);
    y_values.push_back(100 + r % 5);
  }
  std::vector<double> x_dict;
  for (int v = 29; v >= 6; --v) x_dict.push_back(v);
  x_dict.push_back(-40);  // unused
  const ContainerLayout layout = TwoColumns(DictColumn(x_dict, x_codes, 2),
                                            RawColumn(y_values), 70);
  for (const uint64_t seed : {1, 2, 3}) {
    ExpectServedMatchesComposed(WriteLayout(layout), WarmDataset(), seed);
  }
  // Served from the same data it was fitted on, it is the batch release.
  const Dataset warm = WarmDataset();
  ExpectServedMatchesComposed(SerializeCols(warm), warm, 4);
}

TEST(ColsServeEncode, NonFiniteValuesAreRefusedOnlyWhenARowUsesThem) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<uint32_t> codes;
  std::vector<double> y_values;
  for (uint32_t r = 0; r < 40; ++r) {
    codes.push_back(r % 3);
    y_values.push_back(100 + r % 4);
  }
  // Used: refused by name, as before. Only in an unused entry: encoded,
  // as before, since no row holds it.
  const ContainerLayout used_inf = TwoColumns(
      DictColumn({1, inf, 3}, codes), RawColumn(y_values), 40);
  const ContainerLayout unused_inf = TwoColumns(
      DictColumn({1, 2, 3, -inf, nan}, codes), RawColumn(y_values), 40);
  ContainerLayout raw_nan = unused_inf;
  raw_nan.columns[1].raw[17] = nan;
  const Dataset warm = WarmDataset();
  for (const ContainerLayout& layout : {used_inf, unused_inf, raw_nan}) {
    ExpectServedMatchesComposed(WriteLayout(layout), warm, 5);
  }
  EXPECT_NE(ServedEncode(WriteLayout(used_inf), warm, 5)
                .text.find("attribute 'x' = inf"),
            std::string::npos);
  EXPECT_TRUE(ServedEncode(WriteLayout(unused_inf), warm, 5).ok());
}

TEST(ColsServeEncode, DamagedContainerIsDataLoss) {
  std::string bytes = SerializeCols(WarmDataset());
  bytes[bytes.size() / 2] ^= 0x20;
  const serve::ReplyBody served = ServedEncode(bytes, WarmDataset(), 6);
  EXPECT_EQ(served.code, StatusCode::kDataLoss);
  EXPECT_EQ(served.text, ParseCols(bytes).status().ToString());
}

TEST(ColsServeEncode, ZeroRowContainerOnAWarmPlan) {
  const ContainerLayout empty =
      TwoColumns(DictColumn({4, 2}, {}, 4), RawColumn({}), 0);
  ExpectServedMatchesComposed(WriteLayout(empty), WarmDataset(), 7);
}

TEST(ColsServeEncode, RequestThreadsDoNotChangeTheBytes) {
  // 20,000 rows span several kernel blocks, so `threads 4` splits the
  // raw column's kernel pass across workers.
  std::vector<uint32_t> x_codes;
  std::vector<double> y_values;
  for (uint32_t r = 0; r < 20000; ++r) {
    x_codes.push_back((r * 7) % 300);
    y_values.push_back(100 + (r * 37) % 9973 * 0.5);
  }
  std::vector<double> x_dict;
  for (int v = 0; v < 300; ++v) x_dict.push_back(v % 17 - 3.5 * (v % 5));
  ContainerLayout layout = TwoColumns(DictColumn(x_dict, x_codes, 2),
                                      RawColumn(y_values), 20000);
  layout.labels.assign(20000, 1);
  const std::string bytes = WriteLayout(layout);
  const Dataset warm = WarmDataset();
  const Result<std::string> composed = ComposedEncode(bytes, warm, 8);
  ASSERT_TRUE(composed.ok()) << composed.status().ToString();
  for (const size_t threads : {1, 4}) {
    const serve::ReplyBody served = ServedEncode(bytes, warm, 8, threads);
    ASSERT_TRUE(served.ok()) << served.text;
    EXPECT_EQ(served.body, composed.value()) << threads << " threads";
  }
}

TEST(ColsServeEncode, RandomContainersOnPlansFittedOnARowSubset) {
  // Small containers of every layout, each served from a plan fitted on
  // a random subset of its own rows: values outside the subset are unseen
  // by the plan, and some of their images collide with fitted ones.
  Rng rng(20);
  const std::vector<double> candidates = {-0.0, 0.0, -3, -1, 0.5, 1,
                                          2,    2.5, 4,  7,  9,   12};
  for (int trial = 0; trial < 150; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const size_t attrs = static_cast<size_t>(rng.UniformInt(1, 3));
    const size_t rows = static_cast<size_t>(rng.UniformInt(2, 40));
    ContainerLayout layout;
    layout.classes = {"a", "b", "c"};
    layout.label_width =
        static_cast<uint8_t>(1u << rng.UniformInt(0, 2));
    for (size_t r = 0; r < rows; ++r) {
      layout.labels.push_back(static_cast<uint32_t>(rng.UniformInt(0, 2)));
    }
    for (size_t a = 0; a < attrs; ++a) {
      layout.attributes.push_back("a" + std::to_string(a));
      std::vector<double> pool = candidates;
      rng.Shuffle(pool);
      pool.resize(static_cast<size_t>(rng.UniformInt(1, 12)));
      ColumnLayout column;
      column.dict = rng.Bernoulli(0.6);
      if (column.dict) {
        // Repeats and unused extras beside the pool, in shuffled order.
        column.dictionary = pool;
        for (int extra = 0; extra < rng.UniformInt(0, 3); ++extra) {
          column.dictionary.push_back(
              rng.Bernoulli(0.5)
                  ? pool[static_cast<size_t>(rng.UniformInt(
                        0, static_cast<int64_t>(pool.size()) - 1))]
                  : 50.0 + extra);
        }
        rng.Shuffle(column.dictionary);
        column.code_width =
            static_cast<uint8_t>(1u << rng.UniformInt(0, 2));
        for (size_t r = 0; r < rows; ++r) {
          column.codes.push_back(static_cast<uint32_t>(rng.UniformInt(
              0, static_cast<int64_t>(column.dictionary.size()) - 1)));
        }
      } else {
        for (size_t r = 0; r < rows; ++r) {
          column.raw.push_back(pool[static_cast<size_t>(rng.UniformInt(
              0, static_cast<int64_t>(pool.size()) - 1))]);
        }
      }
      layout.columns.push_back(std::move(column));
    }
    const std::string bytes = WriteLayout(layout);
    const Dataset data = ParseCols(bytes).value();
    Dataset warm(data.schema());
    for (size_t r = 0; r < rows; ++r) {
      if (r == 0 || rng.Bernoulli(0.5)) {
        std::vector<AttrValue> values;
        for (size_t a = 0; a < attrs; ++a) values.push_back(data.Value(r, a));
        warm.AddRow(values, data.Label(r));
      }
    }
    ExpectServedMatchesComposed(bytes, warm,
                                static_cast<uint64_t>(trial) + 1);
  }
}

// ------------------------------------------------------------------------
// CSV -> cols -> CSV through the quirks CSV is known for

struct CsvQuirkCase {
  const char* name;
  const char* text;
};

TEST(ColsCsvBridge, CsvQuirksConvertLosslessly) {
  const CsvQuirkCase cases[] = {
      {"crlf", "x,y,class\r\n1,2,a\r\n3,4,b\r\n"},
      {"missing_trailing_newline", "x,y,class\n1,2,a\n3,4,b"},
      {"quoted_fields", "x,y,\"cl,ass\"\n1,2,\"a\"\"q\"\n3,4,\"b,c\"\n"},
      {"hex_float_cells", "x,y,class\n0x1.8p1,-0x1p-3,a\n0x0p0,2,b\n"},
      {"negative_zero", "x,y,class\n-0,0,a\n1,2,b\n"},
  };
  for (const auto& c : cases) {
    auto parsed = ParseCsv(c.text);
    ASSERT_TRUE(parsed.ok()) << c.name << ": " << parsed.status().ToString();
    auto back = ParseCols(SerializeCols(parsed.value()));
    ASSERT_TRUE(back.ok()) << c.name << ": " << back.status().ToString();
    EXPECT_TRUE(back.value() == parsed.value()) << c.name;
    // The canonical CSV bytes survive the binary detour untouched.
    EXPECT_EQ(ToCsvString(back.value()), ToCsvString(parsed.value()))
        << c.name;
  }
}

TEST(ColsCsvBridge, NegativeZeroSurvivesTheFullCycle) {
  auto parsed = ParseCsv("x,class\n-0,a\n0,b\n");
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(std::signbit(parsed.value().Value(0, 0)));
  auto back = ParseCols(SerializeCols(parsed.value()));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(std::signbit(back.value().Value(0, 0)));
  EXPECT_FALSE(std::signbit(back.value().Value(1, 0)));
}

TEST(ColsCsvBridge, QuotedFieldsSpanningTinyReadBuffersConvert) {
  // Stream a CSV whose quoted class labels straddle every read-buffer
  // seam, collect the chunks, write them as one container, and require
  // the container to reproduce the one-shot parse exactly.
  const std::string csv_path = TempPath("cols_quoted_seams.csv");
  const std::string csv_text =
      "x,\"cl,ass\"\n1,\"alpha,beta\"\n2,\"gam\"\"ma\"\n3,\"alpha,beta\"\n";
  ASSERT_TRUE(fault::WriteFileAtomic(csv_path, csv_text).ok());
  auto whole = ParseCsv(csv_text);
  ASSERT_TRUE(whole.ok());
  for (const size_t buffer_bytes : {1u, 2u, 7u}) {
    stream::CsvChunkReader reader(csv_path, {}, buffer_bytes);
    const std::string cols_path = TempPath("cols_quoted_seams.cols");
    stream::DatasetChunkWriter writer;
    for (;;) {
      auto chunk = reader.NextChunk(2);
      ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
      if (chunk.value().NumRows() == 0) break;
      ASSERT_TRUE(writer.Append(chunk.value()).ok());
    }
    ASSERT_TRUE(WriteCols(writer.collected(), cols_path).ok());
    auto loaded = ReadCols(cols_path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_TRUE(loaded.value() == whole.value())
        << "buffer_bytes=" << buffer_bytes;
    std::remove(cols_path.c_str());
  }
  std::remove(csv_path.c_str());
}

// ------------------------------------------------------------------------
// Chunked reader: seams, rewind, sniffing

/// Drains `reader` in `max_rows` chunks into one dataset.
Dataset Drain(stream::ChunkReader& reader, size_t max_rows) {
  stream::DatasetChunkWriter writer;
  for (;;) {
    auto chunk = reader.NextChunk(max_rows);
    EXPECT_TRUE(chunk.ok()) << chunk.status().ToString();
    if (!chunk.ok() || chunk.value().NumRows() == 0) break;
    EXPECT_TRUE(writer.Append(chunk.value()).ok());
  }
  return writer.collected();
}

TEST(ColsChunkIo, BufferedSeamsMatchMmapAtPathologicalSizes) {
  const Dataset d = SmallDataset();
  const std::string path = TempPath("cols_seams.cols");
  ASSERT_TRUE(WriteCols(d, path).ok());

  stream::ColsChunkReader mapped(path, /*prefer_mmap=*/true);
  const Dataset via_map = Drain(mapped, 13);
  EXPECT_TRUE(via_map == d);

  // The shared seam contract: both backends must be byte-equivalent to
  // their mmap/one-shot siblings at 1-, 2- and 7-byte read granularity.
  for (const size_t buffer_bytes : {1u, 2u, 7u}) {
    stream::ColsChunkReader buffered(path, /*prefer_mmap=*/false,
                                     buffer_bytes);
    EXPECT_TRUE(Drain(buffered, 13) == d)
        << "cols buffer_bytes=" << buffer_bytes;
  }

  const std::string csv_path = TempPath("cols_seams.csv");
  ASSERT_TRUE(WriteCsv(d, csv_path).ok());
  auto csv_whole = ReadCsv(csv_path);
  ASSERT_TRUE(csv_whole.ok());
  for (const size_t buffer_bytes : {1u, 2u, 7u}) {
    stream::CsvChunkReader buffered(csv_path, {}, buffer_bytes);
    EXPECT_TRUE(Drain(buffered, 13) == csv_whole.value())
        << "csv buffer_bytes=" << buffer_bytes;
  }
  std::remove(path.c_str());
  std::remove(csv_path.c_str());
}

TEST(ColsChunkIo, RewindMidStreamRestartsFromRowZero) {
  const Dataset d = SmallDataset();
  const std::string path = TempPath("cols_rewind.cols");
  ASSERT_TRUE(WriteCols(d, path).ok());
  stream::ColsChunkReader reader(path);
  auto first = reader.NextChunk(7);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().NumRows(), 7u);
  ASSERT_TRUE(reader.Rewind().ok());
  EXPECT_TRUE(Drain(reader, 11) == d);
  // Rewind after exhaustion too.
  ASSERT_TRUE(reader.Rewind().ok());
  EXPECT_TRUE(Drain(reader, d.NumRows()) == d);
  std::remove(path.c_str());
}

TEST(ColsChunkIo, FromBytesNeedsNoFile) {
  const Dataset d = SmallDataset();
  auto reader = stream::ColsChunkReader::FromBytes(SerializeCols(d));
  EXPECT_TRUE(Drain(*reader, 9) == d);
  ASSERT_TRUE(reader->Rewind().ok());
  EXPECT_TRUE(Drain(*reader, 1) == d);
}

TEST(ColsChunkIo, ChunksCarryTheFullClassDictionaryUpFront) {
  // Unlike CSV streaming (append-only growth), a cols chunk knows every
  // class from row 0 — ids still agree with the container's schema.
  Dataset d({"x"}, {"a", "b", "c"});
  d.AddRow({1.0}, 2);  // first row uses the *last* class
  d.AddRow({2.0}, 0);
  auto reader = stream::ColsChunkReader::FromBytes(SerializeCols(d));
  auto chunk = reader->NextChunk(1);
  ASSERT_TRUE(chunk.ok());
  EXPECT_EQ(chunk.value().NumClasses(), 3u);
  EXPECT_EQ(chunk.value().Label(0), 2);
}

TEST(ColsChunkIo, SniffDetectsTheFormat) {
  const Dataset d = SmallDataset();
  const std::string cols_path = TempPath("cols_sniff.cols");
  const std::string csv_path = TempPath("cols_sniff.csv");
  ASSERT_TRUE(WriteCols(d, cols_path).ok());
  ASSERT_TRUE(WriteCsv(d, csv_path).ok());

  auto cols_format =
      stream::SniffDatasetFormat(cols_path, stream::DatasetFormat::kAuto);
  ASSERT_TRUE(cols_format.ok());
  EXPECT_EQ(cols_format.value(), stream::DatasetFormat::kCols);
  auto csv_format =
      stream::SniffDatasetFormat(csv_path, stream::DatasetFormat::kAuto);
  ASSERT_TRUE(csv_format.ok());
  EXPECT_EQ(csv_format.value(), stream::DatasetFormat::kCsv);
  // An explicit request short-circuits the sniff.
  auto forced = stream::SniffDatasetFormat("/nonexistent/popp/never",
                                           stream::DatasetFormat::kCsv);
  ASSERT_TRUE(forced.ok());
  EXPECT_EQ(forced.value(), stream::DatasetFormat::kCsv);

  for (const auto* path : {&cols_path, &csv_path}) {
    auto reader = stream::MakeChunkReader(*path);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    EXPECT_TRUE(Drain(*reader.value(), 10) == d) << *path;
  }
  std::remove(cols_path.c_str());
  std::remove(csv_path.c_str());
}

TEST(ColsChunkIo, ParseDatasetFormatNamesRoundTrip) {
  for (const auto format :
       {stream::DatasetFormat::kAuto, stream::DatasetFormat::kCsv,
        stream::DatasetFormat::kCols}) {
    auto parsed =
        stream::ParseDatasetFormat(stream::DatasetFormatName(format));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), format);
  }
  EXPECT_FALSE(stream::ParseDatasetFormat("parquet").ok());
}

TEST(ColsChunkIo, WriterMergesGrowingClassDictionaries)
{
  // Chunks arriving with append-only-growing schemas (the CSV streaming
  // shape) merge into one dataset with the union dictionary, which a
  // container then carries intact.
  Dataset first({"x"}, {"a"});
  first.AddRow({1.0}, 0);
  Dataset second({"x"}, {"a", "b"});
  second.AddRow({2.0}, 1);
  stream::DatasetChunkWriter writer;
  ASSERT_TRUE(writer.Append(first).ok());
  ASSERT_TRUE(writer.Append(second).ok());
  ASSERT_TRUE(writer.Close().ok());
  const std::string path = TempPath("cols_writer_merge.cols");
  ColsStats stats;
  ASSERT_TRUE(WriteCols(writer.collected(), path, &stats).ok());
  EXPECT_GT(stats.bytes, 0u);
  auto loaded = ReadCols(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().NumRows(), 2u);
  EXPECT_EQ(loaded.value().NumClasses(), 2u);
  EXPECT_EQ(loaded.value().Label(0), 0);
  EXPECT_EQ(loaded.value().Label(1), 1);
  std::remove(path.c_str());
}

// ------------------------------------------------------------------------
// MappedFile

TEST(ColsMappedFile, MapsAndFallsBackIdentically) {
  const std::string path = TempPath("cols_mapped.bin");
  const std::string payload = "popp mapped payload\n\0with a nul";
  ASSERT_TRUE(fault::WriteFileAtomic(path, payload).ok());
  fault::MappedFile mapped;
  ASSERT_TRUE(mapped.Open(path).ok());
  EXPECT_TRUE(mapped.is_open());
  ASSERT_EQ(mapped.size(), payload.size());
  fault::MappedFile buffered;
  ASSERT_TRUE(buffered.Open(path, /*prefer_mmap=*/false, 3).ok());
  EXPECT_FALSE(buffered.is_mapped());
  ASSERT_EQ(buffered.size(), payload.size());
  EXPECT_EQ(std::string_view(mapped.data(), mapped.size()),
            std::string_view(buffered.data(), buffered.size()));
  std::remove(path.c_str());
}

TEST(ColsMappedFile, EmptyFileIsAValidEmptySpan) {
  const std::string path = TempPath("cols_mapped_empty.bin");
  ASSERT_TRUE(fault::WriteFileAtomic(path, "").ok());
  fault::MappedFile map;
  ASSERT_TRUE(map.Open(path).ok());
  EXPECT_TRUE(map.is_open());
  EXPECT_EQ(map.size(), 0u);
  std::remove(path.c_str());
}

TEST(ColsMappedFile, MissingFileIsNotFound) {
  fault::MappedFile map;
  const Status status = map.Open("/nonexistent/popp/never.cols");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

// ------------------------------------------------------------------------
// The acceptance contract: byte-identical releases from either format,
// every chunk size x 1/2/7/8 threads.

TEST(ColsStreamRelease, ByteIdenticalToBatchAtEveryChunkAndThreadCount) {
  const Dataset d = SmallDataset();
  const uint64_t seed = 29;
  PiecewiseOptions transform;
  Rng rng(seed);
  const TransformPlan batch_plan = TransformPlan::Create(d, transform, rng);
  const std::string batch_csv = ToCsvString(batch_plan.EncodeDataset(d));
  const std::string batch_key = SerializePlan(batch_plan);
  const std::string cols_bytes = SerializeCols(d);

  for (const size_t chunk_rows :
       {size_t{1}, size_t{2}, size_t{7}, size_t{16}, d.NumRows()}) {
    for (const size_t threads : {size_t{1}, size_t{2}, size_t{7}, size_t{8}}) {
      stream::StreamOptions options;
      options.chunk_rows = chunk_rows;
      options.transform = transform;
      options.seed = seed;
      options.exec = ExecPolicy{threads};

      auto cols_reader = stream::ColsChunkReader::FromBytes(cols_bytes);
      stream::DatasetChunkWriter cols_writer;
      auto cols_plan = stream::StreamingCustodian::Release(
          *cols_reader, cols_writer, options);
      ASSERT_TRUE(cols_plan.ok())
          << cols_plan.status().ToString() << " chunk=" << chunk_rows
          << " threads=" << threads;
      EXPECT_EQ(SerializePlan(cols_plan.value()), batch_key)
          << "chunk=" << chunk_rows << " threads=" << threads;
      EXPECT_EQ(ToCsvString(cols_writer.collected()), batch_csv)
          << "chunk=" << chunk_rows << " threads=" << threads;

      stream::DatasetChunkReader csv_reader(&d);
      stream::DatasetChunkWriter csv_writer;
      auto csv_plan = stream::StreamingCustodian::Release(
          csv_reader, csv_writer, options);
      ASSERT_TRUE(csv_plan.ok());
      EXPECT_EQ(ToCsvString(csv_writer.collected()),
                ToCsvString(cols_writer.collected()))
          << "chunk=" << chunk_rows << " threads=" << threads;
    }
  }
}

TEST(ColsStreamRelease, FileBackedReleaseMatchesCsvInput) {
  // End to end through real files and both reader backends.
  const Dataset d = SmallDataset();
  const std::string csv_path = TempPath("cols_release_in.csv");
  const std::string cols_path = TempPath("cols_release_in.cols");
  ASSERT_TRUE(WriteCsv(d, csv_path).ok());
  ASSERT_TRUE(WriteCols(d, cols_path).ok());

  auto release = [&](const std::string& in) {
    auto reader = stream::MakeChunkReader(in);
    EXPECT_TRUE(reader.ok()) << reader.status().ToString();
    stream::StreamOptions options;
    options.chunk_rows = 11;
    options.seed = 5;
    stream::DatasetChunkWriter writer;
    auto plan =
        stream::StreamingCustodian::Release(*reader.value(), writer, options);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return ToCsvString(writer.collected()) +
           (plan.ok() ? SerializePlan(plan.value()) : std::string());
  };
  EXPECT_EQ(release(csv_path), release(cols_path));
  std::remove(csv_path.c_str());
  std::remove(cols_path.c_str());
}

}  // namespace
}  // namespace popp
