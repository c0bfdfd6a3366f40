#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "check/oracles.h"
#include "data/cols.h"
#include "data/csv.h"
#include "fault/failpoint.h"
#include "fault/file.h"
#include "shard/meta_manifest.h"
#include "shard/pipeline.h"
#include "shard/planner.h"
#include "shard/summary_io.h"
#include "stream/chunk_io.h"
#include "stream/cols_io.h"
#include "stream/incremental_summary.h"
#include "stream/manifest.h"
#include "stream/streaming_custodian.h"
#include "synth/covtype_like.h"
#include "synth/presets.h"
#include "temp_path.h"
#include "transform/plan.h"
#include "transform/serialize.h"
#include "util/crc64.h"
#include "util/integrity.h"
#include "util/rng.h"
#include "util/status.h"

/// \file
/// The sharded two-phase release (src/shard): shard planning and range
/// readers, the summary codec, merge-tree algebra, the byte-identity
/// contract against the single-process streamed release across shard
/// counts x thread counts x formats, crash/resume behavior under injected
/// faults, and the manifest-of-manifests verification. Process-mode (fork)
/// tests live in the ShardProcess* suites so sanitizer stages that cannot
/// host fork() can filter them out.

namespace popp {
namespace {

using shard::kOpenEnd;
using shard::MetaManifest;
using shard::RangeChunkReader;
using shard::ShardedCustodian;
using shard::ShardEntry;
using shard::ShardOptions;
using shard::ShardRange;
using shard::ShardStats;
using shard::ShardSummary;
using shard::SummaryCodec;
using stream::IncrementalSummary;

/// Small unstructured datasets (the covtype-like generator needs hundreds
/// of rows to satisfy its mixed-value constraints; shard layouts care
/// about row counts, not class structure).
Dataset CovtypeLikeData(size_t rows = 240, uint64_t seed = 31) {
  Rng rng(seed);
  return MakeRandomDataset(rows, 4, 3, 50, rng);
}

std::string Slurp(const std::string& path) {
  auto bytes = fault::ReadFileToString(path);
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return bytes.ok() ? bytes.value() : std::string();
}

/// Writes the dataset to disk in the requested interchange format.
std::string WriteInput(const Dataset& data, const std::string& name,
                       bool cols) {
  const std::string path = TempPath(name);
  const std::string bytes = cols ? SerializeCols(data) : ToCsvString(data);
  EXPECT_TRUE(fault::WriteFileAtomic(path, bytes).ok());
  return path;
}

/// The golden: a single-process streamed release of `input_path` into a
/// file, returning its bytes (and the plan bytes through `plan_out`).
std::string StreamReleaseBytes(const std::string& input_path,
                               size_t chunk_rows, uint64_t seed,
                               std::string* plan_out = nullptr) {
  stream::StreamOptions options;
  options.chunk_rows = chunk_rows;
  options.seed = seed;
  auto reader = stream::MakeChunkReader(input_path,
                                        stream::DatasetFormat::kAuto, {});
  EXPECT_TRUE(reader.ok()) << reader.status().ToString();
  const std::string out = TempPath("stream_golden.csv");
  stream::ResumableCsvChunkWriter writer(out, {}, /*resume=*/false);
  auto plan = stream::StreamingCustodian::Release(*reader.value(), writer,
                                                  options);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  if (plan.ok() && plan_out != nullptr) {
    *plan_out = SerializePlan(plan.value());
  }
  return Slurp(out);
}

std::string ConcatShards(const std::string& out_path, size_t num_shards) {
  std::string all;
  for (size_t k = 0; k < num_shards; ++k) {
    all += Slurp(shard::ShardFilePath(out_path, k));
  }
  return all;
}

ShardOptions BaseOptions(size_t shards, size_t threads, size_t chunk_rows,
                         uint64_t seed) {
  ShardOptions options;
  options.num_shards = shards;
  options.chunk_rows = chunk_rows;
  options.seed = seed;
  options.exec = ExecPolicy{threads};
  return options;
}

/// Fits a plan from an incremental summary with the batch RNG discipline
/// and returns its serialization — the merge property tests' invariant.
std::string FitBytes(const IncrementalSummary& summary, uint64_t seed) {
  Rng rng(seed);
  const TransformPlan plan = TransformPlan::CreateFromSummaries(
      summary.SummarizeAll(), PiecewiseOptions{}, rng, ExecPolicy::Serial());
  return SerializePlan(plan);
}

// ------------------------------------------------------------ planning --

TEST(SplitRowsTest, EvenSplitIsContiguous) {
  const auto ranges = shard::SplitRows(12, 4);
  ASSERT_EQ(ranges.size(), 4u);
  size_t cursor = 0;
  for (const ShardRange& r : ranges) {
    EXPECT_EQ(r.begin, cursor);
    EXPECT_EQ(r.rows(), 3u);
    cursor = r.end;
  }
  EXPECT_EQ(cursor, 12u);
}

TEST(SplitRowsTest, RemainderGoesToEarliestShards) {
  const auto ranges = shard::SplitRows(10, 4);
  ASSERT_EQ(ranges.size(), 4u);
  EXPECT_EQ(ranges[0].rows(), 3u);
  EXPECT_EQ(ranges[1].rows(), 3u);
  EXPECT_EQ(ranges[2].rows(), 2u);
  EXPECT_EQ(ranges[3].rows(), 2u);
  EXPECT_EQ(ranges[3].end, 10u);
}

TEST(SplitRowsTest, FewerRowsThanShardsLeavesTrailingShardsEmpty) {
  const auto ranges = shard::SplitRows(2, 5);
  ASSERT_EQ(ranges.size(), 5u);
  EXPECT_EQ(ranges[0].rows(), 1u);
  EXPECT_EQ(ranges[1].rows(), 1u);
  for (size_t k = 2; k < 5; ++k) {
    EXPECT_TRUE(ranges[k].empty()) << "shard " << k;
  }
}

TEST(SplitRowsTest, ZeroRowsAllEmpty) {
  for (const ShardRange& r : shard::SplitRows(0, 3)) {
    EXPECT_TRUE(r.empty());
    EXPECT_EQ(r.rows(), 0u);
  }
}

TEST(CountRowsTest, CsvAndColsAgree) {
  const Dataset data = CovtypeLikeData(57);
  const std::string csv = WriteInput(data, "count.csv", /*cols=*/false);
  const std::string cols = WriteInput(data, "count.cols", /*cols=*/true);
  auto csv_rows = shard::CountRows(csv);
  auto cols_rows = shard::CountRows(cols);
  ASSERT_TRUE(csv_rows.ok()) << csv_rows.status().ToString();
  ASSERT_TRUE(cols_rows.ok()) << cols_rows.status().ToString();
  EXPECT_EQ(csv_rows.value(), 57u);
  EXPECT_EQ(cols_rows.value(), 57u);
}

TEST(RangeChunkReaderTest, BoundedRangeYieldsExactlyItsRows) {
  const Dataset data = CovtypeLikeData(40);
  const std::string path = WriteInput(data, "range.csv", /*cols=*/false);
  auto inner = stream::MakeChunkReader(path, stream::DatasetFormat::kAuto, {});
  ASSERT_TRUE(inner.ok());
  RangeChunkReader reader(std::move(inner).value(), ShardRange{13, 29});
  size_t rows = 0;
  for (;;) {
    auto chunk = reader.NextChunk(7);
    ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
    if (chunk.value().NumRows() == 0) break;
    // Spot-check alignment: first attribute values match the source rows.
    for (size_t i = 0; i < chunk.value().NumRows(); ++i) {
      EXPECT_EQ(chunk.value().Value(i, 0), data.Value(13 + rows + i, 0));
    }
    rows += chunk.value().NumRows();
  }
  EXPECT_EQ(rows, 16u);
}

TEST(RangeChunkReaderTest, EmptyRangeYieldsNothing) {
  const Dataset data = CovtypeLikeData(10);
  const std::string path = WriteInput(data, "range_empty.csv", false);
  auto inner = stream::MakeChunkReader(path, stream::DatasetFormat::kAuto, {});
  ASSERT_TRUE(inner.ok());
  RangeChunkReader reader(std::move(inner).value(), ShardRange{10, 10});
  auto chunk = reader.NextChunk(4);
  ASSERT_TRUE(chunk.ok());
  EXPECT_EQ(chunk.value().NumRows(), 0u);
}

TEST(RangeChunkReaderTest, RangeBeyondEofIsInvalidArgument) {
  const Dataset data = CovtypeLikeData(5);
  const std::string path = WriteInput(data, "range_eof.csv", false);
  auto inner = stream::MakeChunkReader(path, stream::DatasetFormat::kAuto, {});
  ASSERT_TRUE(inner.ok());
  RangeChunkReader reader(std::move(inner).value(), ShardRange{10, 15});
  auto chunk = reader.NextChunk(4);
  ASSERT_FALSE(chunk.ok());
  EXPECT_EQ(chunk.status().code(), StatusCode::kInvalidArgument);
}

TEST(RangeChunkReaderTest, RewindReproducesTheRange) {
  const Dataset data = CovtypeLikeData(30);
  const std::string path = WriteInput(data, "range_rewind.cols", true);
  auto inner = stream::MakeChunkReader(path, stream::DatasetFormat::kAuto, {});
  ASSERT_TRUE(inner.ok());
  RangeChunkReader reader(std::move(inner).value(), ShardRange{7, 19});
  auto pass = [&reader]() {
    std::string csv;
    for (;;) {
      auto chunk = reader.NextChunk(5);
      EXPECT_TRUE(chunk.ok());
      if (chunk.value().NumRows() == 0) break;
      csv += ToCsvString(chunk.value());
    }
    return csv;
  };
  const std::string first = pass();
  ASSERT_TRUE(reader.Rewind().ok());
  EXPECT_EQ(pass(), first);
  EXPECT_FALSE(first.empty());
}

TEST(SkipRowsTest, ColsSkipsInConstantTimeToTheRightRow) {
  const Dataset data = CovtypeLikeData(25);
  const std::string bytes = SerializeCols(data);
  auto reader = stream::ColsChunkReader::FromBytes(bytes);
  auto skipped = reader->SkipRows(11);
  ASSERT_TRUE(skipped.ok());
  EXPECT_EQ(skipped.value(), 11u);
  auto chunk = reader->NextChunk(3);
  ASSERT_TRUE(chunk.ok());
  ASSERT_EQ(chunk.value().NumRows(), 3u);
  EXPECT_EQ(chunk.value().Value(0, 0), data.Value(11, 0));
}

TEST(SkipRowsTest, SkippingPastEofReportsTheShortCount) {
  const Dataset data = CovtypeLikeData(8);
  const std::string path = WriteInput(data, "skip_eof.csv", false);
  auto reader = stream::MakeChunkReader(path, stream::DatasetFormat::kAuto,
                                        {});
  ASSERT_TRUE(reader.ok());
  auto skipped = reader.value()->SkipRows(100);
  ASSERT_TRUE(skipped.ok());
  EXPECT_EQ(skipped.value(), 8u);
}

TEST(SkipRowsTest, CsvSkipLandsOnTheSameRow) {
  // A skip passes records without parsing them, so the class dictionary
  // after it may differ from a full read's; the rows after it may not.
  const Dataset data = CovtypeLikeData(60);
  const std::string path = WriteInput(data, "skip_dict.csv", false);
  auto skipping = stream::MakeChunkReader(path, stream::DatasetFormat::kAuto,
                                          {});
  auto reading = stream::MakeChunkReader(path, stream::DatasetFormat::kAuto,
                                         {});
  ASSERT_TRUE(skipping.ok());
  ASSERT_TRUE(reading.ok());
  ASSERT_TRUE(skipping.value()->SkipRows(37).ok());
  ASSERT_TRUE(reading.value()->SkipRows(0).ok());
  auto drained = reading.value()->NextChunk(37);
  ASSERT_TRUE(drained.ok());
  auto a = skipping.value()->NextChunk(10);
  auto b = reading.value()->NextChunk(10);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(ToCsvString(a.value()), ToCsvString(b.value()));
}

/// Opens a CSV chunk reader over `text` written to a temp file, reading
/// `buffer_bytes` at a time.
std::unique_ptr<stream::ChunkReader> CsvReaderOver(
    const std::string& text, const std::string& name,
    CsvOptions options = {}, size_t buffer_bytes = 1 << 16) {
  const std::string path = TempPath(name);
  EXPECT_TRUE(fault::WriteFileAtomic(path, text).ok());
  return std::make_unique<stream::CsvChunkReader>(path, options,
                                                  buffer_bytes);
}

TEST(SkipRowsTest, CsvFirstRecordStillFixesTheSchema) {
  // Without a header the first row fixes the field count and counts as
  // skipped; an empty file and a bad header fail as a read does.
  CsvOptions no_header;
  no_header.has_header = false;
  for (const size_t skip : {1, 2}) {
    auto reader = CsvReaderOver("1,2,a\n3,4,b\n5,6,c\n", "skip_nohdr.csv",
                                no_header);
    auto skipped = reader->SkipRows(skip);
    ASSERT_TRUE(skipped.ok()) << skipped.status().ToString();
    EXPECT_EQ(skipped.value(), skip);
    auto chunk = reader->NextChunk(8);
    ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
    ASSERT_EQ(chunk.value().NumRows(), 3 - skip);
    EXPECT_EQ(chunk.value().Value(0, 0), 1.0 + 2.0 * skip);
    EXPECT_EQ(chunk.value().schema().AttributeName(1), "attr2");
  }
  auto header_only = CsvReaderOver("a,b,class\n", "skip_hdr_only.csv");
  auto none = header_only->SkipRows(5);
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none.value(), 0u);
  for (const std::string text : {"", "\n\r\n", "a\n1\n"}) {
    auto skipping = CsvReaderOver(text, "skip_bad.csv");
    auto reading = CsvReaderOver(text, "read_bad.csv");
    auto skipped = skipping->SkipRows(3);
    auto read = reading->NextChunk(3);
    ASSERT_FALSE(skipped.ok()) << "'" << text << "'";
    ASSERT_FALSE(read.ok()) << "'" << text << "'";
    EXPECT_EQ(skipped.status().ToString(), read.status().ToString());
  }
}

TEST(SkipRowsTest, CsvSkipPassesRowsUnparsedAndKeepsLineNumbers) {
  // Skipped rows are not parsed, so a malformed one is left to whoever
  // reads it; the rows read after a skip report their file lines, past
  // blank lines, CRLF ends and quoted line breaks, at every read size.
  const std::string text =
      "x,y,class\r\n1,2,\"a\nb\"\n\n3,oops,c\r\n\r\n\"4\",5,\"d,\"\"e\"\n"
      "6,7\n8,9,f\n10,x7,g\n";
  for (const size_t buffer : {1, 2, 3, 7, 64, 1 << 16}) {
    const std::string where = "buffer=" + std::to_string(buffer);
    auto reader = CsvReaderOver(text, "skip_lines.csv", {}, buffer);
    auto skipped = reader->SkipRows(4);  // one malformed cell, one short row
    ASSERT_TRUE(skipped.ok()) << skipped.status().ToString() << where;
    EXPECT_EQ(skipped.value(), 4u) << where;
    auto chunk = reader->NextChunk(1);
    ASSERT_TRUE(chunk.ok()) << chunk.status().ToString() << where;
    ASSERT_EQ(chunk.value().NumRows(), 1u) << where;
    EXPECT_EQ(chunk.value().Value(0, 0), 8.0) << where;
    auto bad = reader->NextChunk(1);
    ASSERT_FALSE(bad.ok()) << where;
    EXPECT_EQ(bad.status().ToString(),
              "INVALID_ARGUMENT: line 10: cannot parse number 'x7'")
        << where;
  }
}

// ------------------------------------------------------- summary codec --

ShardSummary SummaryOf(const Dataset& data, size_t begin, size_t end,
                       size_t index = 0, size_t shards = 1) {
  ShardSummary s;
  s.shard_index = index;
  s.num_shards = shards;
  s.range = ShardRange{begin, end};
  if (begin < end) {
    IncrementalSummary inc(data.NumAttributes());
    stream::DatasetChunkReader reader(&data);
    EXPECT_TRUE(reader.SkipRows(begin).ok());
    auto chunk = reader.NextChunk(end - begin);
    EXPECT_TRUE(chunk.ok());
    inc.Absorb(chunk.value());
    s.class_names = chunk.value().schema().class_names();
    s.summary = std::move(inc);
  }
  return s;
}

TEST(SummaryCodecTest, RoundTripIsByteStable) {
  const Dataset data = CovtypeLikeData(80);
  const ShardSummary shard = SummaryOf(data, 5, 60, 1, 3);
  const std::string text = SummaryCodec::Serialize(shard);
  auto parsed = SummaryCodec::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(SummaryCodec::Serialize(parsed.value()), text);
  EXPECT_EQ(parsed.value().shard_index, 1u);
  EXPECT_EQ(parsed.value().num_shards, 3u);
  EXPECT_EQ(parsed.value().class_names, shard.class_names);
  ASSERT_TRUE(parsed.value().summary.has_value());
  EXPECT_EQ(parsed.value().summary->NumRows(), 55u);
  EXPECT_EQ(FitBytes(*parsed.value().summary, 3),
            FitBytes(*shard.summary, 3));
}

TEST(SummaryCodecTest, ValuesTravelAsBitPatterns) {
  // -0.0 vs 0.0 and a denormal must survive: decimal rendering would
  // collapse or perturb them and break the byte-identity contract.
  Schema schema({"a"}, {"x"});
  Dataset data(schema);
  data.AddRow({0.0}, 0);
  data.AddRow({-0.0}, 0);
  data.AddRow({5e-324}, 0);
  data.AddRow({1.0}, 0);
  ShardSummary shard = SummaryOf(data, 0, 4);
  const std::string text = SummaryCodec::Serialize(shard);
  auto parsed = SummaryCodec::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const AttributeSummary original = shard.summary->Summarize(0);
  const AttributeSummary reloaded = parsed.value().summary->Summarize(0);
  ASSERT_EQ(reloaded.NumDistinct(), original.NumDistinct());
  for (size_t i = 0; i < original.NumDistinct(); ++i) {
    EXPECT_EQ(std::signbit(reloaded.ValueAt(i)),
              std::signbit(original.ValueAt(i)));
    EXPECT_EQ(reloaded.ValueAt(i), original.ValueAt(i));
  }
}

TEST(SummaryCodecTest, BytesDoNotDependOnRowOrderOrChunking) {
  // The summary numbers distinct values in arrival order, so Serialize
  // must sort them: the same rows in another order and chunking give the
  // same artifact. Forward order meets 0.0 first, reverse order -0.0; both
  // must write the zero as -0.0.
  const Schema schema({"a", "b"}, {"x", "y"});
  const AttrValue specials[] = {0.0, 5e-324,  -3.5, -1e300,
                                2.0, -5e-324, 1.5,  -0.0};
  Rng rng(23);
  std::vector<std::vector<AttrValue>> values;
  std::vector<ClassId> labels;
  for (size_t i = 0; i < 200; ++i) {
    values.push_back({specials[i % 8], std::round(rng.Uniform(-20, 20))});
    labels.push_back(static_cast<ClassId>(rng.Next() % 2));
  }
  auto serialize = [&](bool reversed, size_t chunk_rows) {
    IncrementalSummary inc(schema.NumAttributes());
    for (size_t begin = 0; begin < values.size(); begin += chunk_rows) {
      Dataset chunk(schema);
      const size_t end = std::min(values.size(), begin + chunk_rows);
      for (size_t i = begin; i < end; ++i) {
        const size_t row = reversed ? values.size() - 1 - i : i;
        chunk.AddRow(values[row], labels[row]);
      }
      inc.Absorb(chunk);
    }
    ShardSummary shard;
    shard.range = ShardRange{0, values.size()};
    shard.class_names = schema.class_names();
    shard.summary = std::move(inc);
    return SummaryCodec::Serialize(shard);
  };
  const std::string forward = serialize(false, 7);
  EXPECT_EQ(serialize(true, 64), forward);
  EXPECT_NE(forward.find("value 0 8000000000000000 "), std::string::npos);
  EXPECT_EQ(forward.find("value 0 0000000000000000 "), std::string::npos);
  auto parsed = SummaryCodec::Parse(forward);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(SummaryCodec::Serialize(parsed.value()), forward);
}

TEST(SummaryCodecTest, DuplicateValueLinesAreDataLoss) {
  // 0.0 and -0.0 are one value of the summary, so they duplicate each
  // other as well as themselves.
  const std::string head =
      "popp-shard-summary v1\nshard 0 1\nrange 0 2\nrows 2\n"
      "attributes 1\nclasses 1\nclass 78\nvalue 0 0000000000000000 1\n";
  auto parse_with = [&](const std::string& bits) {
    return SummaryCodec::Parse(
        WithIntegrityFooter(head + "value 0 " + bits + " 1\n"));
  };
  EXPECT_TRUE(parse_with("3ff0000000000000").ok());
  for (const char* bits : {"0000000000000000", "8000000000000000"}) {
    auto parsed = parse_with(bits);
    ASSERT_FALSE(parsed.ok()) << bits;
    EXPECT_EQ(parsed.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(parsed.status().message().find("duplicate value line"),
              std::string::npos);
  }
}

TEST(SummaryCodecTest, EmptyShardRoundTrips) {
  ShardSummary shard;
  shard.shard_index = 4;
  shard.num_shards = 5;
  shard.range = ShardRange{9, 9};
  const std::string text = SummaryCodec::Serialize(shard);
  auto parsed = SummaryCodec::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_FALSE(parsed.value().summary.has_value());
  EXPECT_TRUE(parsed.value().class_names.empty());
  EXPECT_EQ(SummaryCodec::Serialize(parsed.value()), text);
}

TEST(SummaryCodecTest, OpenRangeRoundTrips) {
  const Dataset data = CovtypeLikeData(12);
  ShardSummary shard = SummaryOf(data, 0, 12);
  shard.range = ShardRange{0, kOpenEnd};
  auto parsed = SummaryCodec::Parse(SummaryCodec::Serialize(shard));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed.value().range.open());
}

TEST(SummaryCodecTest, CorruptionIsDataLoss) {
  const Dataset data = CovtypeLikeData(30);
  const std::string text = SummaryCodec::Serialize(SummaryOf(data, 0, 30));
  // Flip a byte anywhere in the payload: the footer CRC must catch it.
  for (size_t at : {size_t{0}, text.size() / 2, text.size() - 2}) {
    std::string bad = text;
    bad[at] ^= 0x01;
    auto parsed = SummaryCodec::Parse(bad);
    ASSERT_FALSE(parsed.ok()) << "flip at " << at;
    EXPECT_EQ(parsed.status().code(), StatusCode::kDataLoss) << "flip at "
                                                             << at;
  }
  // Truncation too.
  auto truncated = SummaryCodec::Parse(text.substr(0, text.size() / 2));
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.status().code(), StatusCode::kDataLoss);
}

TEST(SummaryCodecTest, SaveLoadRoundTripsAndMissingFileIsNotFound) {
  const Dataset data = CovtypeLikeData(20);
  const ShardSummary shard = SummaryOf(data, 0, 20);
  const std::string path = TempPath("codec.sum");
  ASSERT_TRUE(SummaryCodec::Save(shard, path).ok());
  auto loaded = SummaryCodec::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(SummaryCodec::Serialize(loaded.value()),
            SummaryCodec::Serialize(shard));
  ASSERT_TRUE(fault::RemoveFile(path).ok());
  auto missing = SummaryCodec::Load(path);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

// ------------------------------------------------- merge-tree algebra --

/// Absorbs rows [begin, end) of `data` into a fresh summary.
IncrementalSummary PartOf(const Dataset& data, size_t begin, size_t end) {
  IncrementalSummary inc(data.NumAttributes());
  stream::DatasetChunkReader reader(&data);
  EXPECT_TRUE(reader.SkipRows(begin).ok());
  if (begin < end) {
    auto chunk = reader.NextChunk(end - begin);
    EXPECT_TRUE(chunk.ok());
    inc.Absorb(chunk.value());
  }
  return inc;
}

TEST(MergePropertyTest, MergeIsCommutative) {
  const Dataset data = CovtypeLikeData(100);
  IncrementalSummary ab = PartOf(data, 0, 40);
  ab.Merge(PartOf(data, 40, 100));
  IncrementalSummary ba = PartOf(data, 40, 100);
  ba.Merge(PartOf(data, 0, 40));
  EXPECT_EQ(FitBytes(ab, 7), FitBytes(ba, 7));
  EXPECT_EQ(ab.NumRows(), ba.NumRows());
}

TEST(MergePropertyTest, MergeIsAssociative) {
  const Dataset data = CovtypeLikeData(90);
  // ((a + b) + c)
  IncrementalSummary left = PartOf(data, 0, 30);
  left.Merge(PartOf(data, 30, 55));
  left.Merge(PartOf(data, 55, 90));
  // (a + (b + c))
  IncrementalSummary bc = PartOf(data, 30, 55);
  bc.Merge(PartOf(data, 55, 90));
  IncrementalSummary right = PartOf(data, 0, 30);
  right.Merge(bc);
  EXPECT_EQ(FitBytes(left, 11), FitBytes(right, 11));
}

TEST(MergePropertyTest, RandomGroupingsAndOrdersFitTheSamePlan) {
  // The satellite property test: any contiguous grouping of the stream —
  // including empty and single-row groups — merged in any order yields
  // the same fitted plan bytes as the whole-stream absorb.
  const Dataset data = CovtypeLikeData(120, 17);
  const std::string golden = FitBytes(PartOf(data, 0, 120), 5);
  Rng rng(99);
  for (size_t trial = 0; trial < 12; ++trial) {
    // Random cut points, allowing empty groups (repeated cuts) and
    // single-row groups.
    std::vector<size_t> cuts = {0, 120};
    const size_t extra = 1 + static_cast<size_t>(rng.UniformInt(0, 6));
    for (size_t i = 0; i < extra; ++i) {
      cuts.push_back(static_cast<size_t>(rng.UniformInt(0, 120)));
    }
    std::sort(cuts.begin(), cuts.end());
    std::vector<IncrementalSummary> groups;
    for (size_t i = 0; i + 1 < cuts.size(); ++i) {
      groups.push_back(PartOf(data, cuts[i], cuts[i + 1]));
    }
    // Merge in a random order: repeatedly fold a random group into a
    // random survivor.
    while (groups.size() > 1) {
      const size_t a = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(groups.size() - 1)));
      size_t b = a;
      while (b == a) {
        b = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(groups.size() - 1)));
      }
      groups[std::min(a, b)].Merge(groups[std::max(a, b)]);
      groups.erase(groups.begin() +
                   static_cast<ptrdiff_t>(std::max(a, b)));
    }
    ASSERT_EQ(groups[0].NumRows(), 120u) << "trial " << trial;
    EXPECT_EQ(FitBytes(groups[0], 5), golden) << "trial " << trial;
  }
}

TEST(MergePropertyTest, RemapClassesPreservesCountsExactly) {
  const Dataset data = CovtypeLikeData(60);
  const IncrementalSummary base = PartOf(data, 0, 60);
  // Remap through a permutation and back: counts must be preserved.
  const size_t c = base.NumClasses();
  ASSERT_GE(c, 2u);
  std::vector<size_t> perm(c), inverse(c);
  for (size_t i = 0; i < c; ++i) perm[i] = (i + 1) % c;
  for (size_t i = 0; i < c; ++i) inverse[perm[i]] = i;
  const IncrementalSummary there = SummaryCodec::RemapClasses(base, perm, c);
  const IncrementalSummary back =
      SummaryCodec::RemapClasses(there, inverse, c);
  EXPECT_EQ(FitBytes(back, 13), FitBytes(base, 13));
  EXPECT_EQ(back.NumRows(), base.NumRows());
}

// ------------------------------------------------ byte-identity sweep --

class ShardReleaseTest : public testing::Test {
 protected:
  void SetUp() override { data_ = CovtypeLikeData(220, 41); }
  Dataset data_;
};

TEST_F(ShardReleaseTest, ConcatenationMatchesStreamReleaseEverywhere) {
  // The tentpole gate: shards {1, 2, 3, 8} x threads {1, 2, 7} x formats
  // {csv, cols}, all byte-identical to the single-process release.
  for (const bool cols : {false, true}) {
    const std::string input =
        WriteInput(data_, cols ? "sweep.cols" : "sweep.csv", cols);
    std::string golden_plan;
    const std::string golden =
        StreamReleaseBytes(input, 64, /*seed=*/9, &golden_plan);
    ASSERT_FALSE(golden.empty());
    for (const size_t shards : {1, 2, 3, 8}) {
      for (const size_t threads : {1, 2, 7}) {
        const std::string out = TempPath("sweep_out");
        ShardStats stats;
        auto plan = ShardedCustodian::Release(
            input, out, BaseOptions(shards, threads, 64, 9), &stats);
        ASSERT_TRUE(plan.ok())
            << plan.status().ToString() << " shards=" << shards
            << " threads=" << threads << " cols=" << cols;
        const std::string where = " shards=" + std::to_string(shards) +
                                  " threads=" + std::to_string(threads) +
                                  " cols=" + std::to_string(cols);
        EXPECT_EQ(SerializePlan(plan.value()), golden_plan) << where;
        EXPECT_EQ(ConcatShards(out, shards), golden) << where;
        EXPECT_EQ(stats.rows, data_.NumRows()) << where;
        const uint64_t crc = Crc64(golden_plan);
        EXPECT_TRUE(shard::VerifyShardedRelease(out, &crc, nullptr).ok())
            << where;
      }
    }
  }
}

TEST_F(ShardReleaseTest, SignedZerosGiveOneKeyOnEveryPath) {
  // Columns that mix 0 and -0, one starting with each: the batch sort and
  // the streamed and sharded summaries see the zeros in different orders,
  // but all of them must represent the run by the same zero and write the
  // same key bytes.
  Rng rng(2);
  Dataset data({"z", "w", "v"}, {"a", "b"});
  data.AddRow({0.0, -0.0, 3}, 0);
  for (int i = 1; i < 3000; ++i) {
    data.AddRow({rng.Bernoulli(0.5) ? -0.0 : 0.0,
                 rng.Bernoulli(0.5) ? -0.0 : 0.0,
                 static_cast<AttrValue>(rng.UniformInt(-3, 3))},
                static_cast<ClassId>(rng.UniformInt(0, 1)));
  }
  const std::string input = WriteInput(data, "zeros.csv", false);
  auto parsed = ReadCsv(input);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  Rng batch_rng(3);
  const std::string batch_key = SerializePlan(
      TransformPlan::Create(parsed.value(), PiecewiseOptions{}, batch_rng));
  ASSERT_NE(batch_key.find("piece -0 -0"), std::string::npos) << batch_key;
  for (const size_t chunk_rows : {1, 7, 4096}) {
    std::string stream_key;
    StreamReleaseBytes(input, chunk_rows, /*seed=*/3, &stream_key);
    EXPECT_EQ(stream_key, batch_key) << "chunk_rows=" << chunk_rows;
  }
  for (const size_t shards : {1, 3}) {
    auto plan = ShardedCustodian::Release(input, TempPath("zeros_out"),
                                          BaseOptions(shards, 1, 64, 3),
                                          nullptr);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_EQ(SerializePlan(plan.value()), batch_key) << "shards=" << shards;
  }
}

TEST_F(ShardReleaseTest, SingleShardTakesTheSingleProcessPath) {
  // The 1-shard degenerate layout: open range, no counting pass, full
  // thread budget inside the one worker — and exact byte identity.
  const std::string input = WriteInput(data_, "single.csv", false);
  std::string golden_plan;
  const std::string golden = StreamReleaseBytes(input, 32, 3, &golden_plan);
  const std::string out = TempPath("single_out");
  ShardStats stats;
  auto plan =
      ShardedCustodian::Release(input, out, BaseOptions(1, 7, 32, 3), &stats);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(SerializePlan(plan.value()), golden_plan);
  EXPECT_EQ(Slurp(shard::ShardFilePath(out, 0)), golden);
  EXPECT_EQ(stats.shards, 1u);
  EXPECT_EQ(stats.empty_shards, 0u);
}

TEST_F(ShardReleaseTest, MoreShardsThanRowsYieldsEmptyShards) {
  const Dataset tiny = CovtypeLikeData(3, 77);
  const std::string input = WriteInput(tiny, "tiny.csv", false);
  std::string golden_plan;
  const std::string golden = StreamReleaseBytes(input, 16, 5, &golden_plan);
  const std::string out = TempPath("tiny_out");
  ShardStats stats;
  auto plan =
      ShardedCustodian::Release(input, out, BaseOptions(8, 2, 16, 5), &stats);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(SerializePlan(plan.value()), golden_plan);
  EXPECT_EQ(ConcatShards(out, 8), golden);
  EXPECT_EQ(stats.empty_shards, 5u);
  // The empty shards publish zero-byte files the manifest still covers.
  for (size_t k = 3; k < 8; ++k) {
    EXPECT_EQ(Slurp(shard::ShardFilePath(out, k)), "");
  }
  shard::VerifyTotals totals;
  ASSERT_TRUE(shard::VerifyShardedRelease(out, nullptr, &totals).ok());
  EXPECT_EQ(totals.shards, 8u);
  EXPECT_EQ(totals.rows, 3u);
}

TEST_F(ShardReleaseTest, IndivisibleRowCountStaysByteIdentical) {
  const Dataset odd = CovtypeLikeData(101, 13);
  const std::string input = WriteInput(odd, "odd.csv", false);
  std::string golden_plan;
  const std::string golden = StreamReleaseBytes(input, 21, 7, &golden_plan);
  const std::string out = TempPath("odd_out");
  auto plan =
      ShardedCustodian::Release(input, out, BaseOptions(4, 2, 21, 7), nullptr);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(SerializePlan(plan.value()), golden_plan);
  EXPECT_EQ(ConcatShards(out, 4), golden);
}

/// CSV text the release writer never produces: a quoted header name,
/// quoted labels holding the delimiter, a quote, a line break and a CRLF,
/// quoted numbers, CRLF and LF line ends mixed, blank lines, and no line
/// end after the last row.
std::string UnusualCsvText(size_t rows, uint64_t seed) {
  const char* const labels[] = {"plain", "\"with, comma\"",
                                "\"say \"\"hi\"\"\"", "\"two\nlines\"",
                                "\"crlf\r\ninside\""};
  Rng rng(seed);
  std::string text = "x,\"y, quoted\",z,class\r\n";
  for (size_t r = 0; r < rows; ++r) {
    if (rng.Bernoulli(0.05)) text += rng.Bernoulli(0.5) ? "\n" : "\r\n";
    const std::string x = std::to_string(rng.UniformInt(0, 40));
    text += rng.Bernoulli(0.1) ? "\"" + x + "\"" : x;
    text += "," + std::to_string(rng.UniformInt(-5, 5)) + "," +
            FormatCsvCell(static_cast<double>(rng.UniformInt(0, 999)) / 8) +
            "," + labels[rng.UniformInt(0, 4)];
    if (r + 1 < rows) text += rng.Bernoulli(0.5) ? "\r\n" : "\n";
  }
  return text;
}

TEST_F(ShardReleaseTest, UnusualCsvTextMatchesStreamRelease) {
  // Over 64 KiB, so shard starts fall past read-window seams too.
  const std::string input = TempPath("unusual.csv");
  ASSERT_TRUE(
      fault::WriteFileAtomic(input, UnusualCsvText(4000, 23)).ok());
  std::string golden_plan;
  const std::string golden = StreamReleaseBytes(input, 96, 4, &golden_plan);
  ASSERT_FALSE(golden.empty());
  for (const size_t shards : {2, 3, 5}) {
    const std::string out = TempPath("unusual_out");
    ShardStats stats;
    auto plan = ShardedCustodian::Release(
        input, out, BaseOptions(shards, 3, 96, 4), &stats);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString() << " shards=" << shards;
    EXPECT_EQ(SerializePlan(plan.value()), golden_plan) << "shards=" << shards;
    EXPECT_EQ(ConcatShards(out, shards), golden) << "shards=" << shards;
    EXPECT_EQ(stats.rows, 4000u);
  }
}

/// `text`, a CSV with a header line, with the first cell of data row `row`
/// (1-based) replaced by `cell`.
std::string WithFirstCell(std::string text, size_t row,
                          const std::string& cell) {
  size_t at = 0;
  for (size_t line = 0; line < row; ++line) at = text.find('\n', at) + 1;
  text.replace(at, text.find(',', at) - at, cell);
  return text;
}

/// The status of a single-process stream release of `input`.
Status StreamReleaseStatus(const std::string& input) {
  auto reader =
      stream::MakeChunkReader(input, stream::DatasetFormat::kAuto, {});
  if (!reader.ok()) return reader.status();
  stream::ResumableCsvChunkWriter writer(TempPath("stream_status.csv"), {},
                                         /*resume=*/false);
  stream::StreamOptions options;
  options.chunk_rows = 32;
  return stream::StreamingCustodian::Release(*reader.value(), writer, options)
      .status();
}

TEST_F(ShardReleaseTest, BadCellsInTheLastShardNameTheStreamLineAndRow) {
  // The row count no longer parses cells, so the shard that owns a bad
  // row reports it, with the line or row the stream release names.
  for (const std::string bad : {"x7", "inf"}) {
    const std::string input = TempPath("bad_cell.csv");
    ASSERT_TRUE(fault::WriteFileAtomic(
                    input, WithFirstCell(ToCsvString(data_), 200, bad))
                    .ok());  // row 200 of 220
    const Status golden = StreamReleaseStatus(input);
    ASSERT_EQ(golden.code(), StatusCode::kInvalidArgument) << bad;
    for (const size_t shards : {2, 4}) {
      auto plan = ShardedCustodian::Release(
          input, TempPath("bad_cell_out"), BaseOptions(shards, 2, 32, 1),
          nullptr);
      ASSERT_FALSE(plan.ok()) << bad;
      EXPECT_EQ(plan.status().ToString(), golden.ToString())
          << bad << " shards=" << shards;
    }
  }
}

TEST_F(ShardReleaseTest, ShardsMeetingClassesInOtherOrdersFitTheStreamPlan) {
  // 3 shards of 30 rows: shard 0 meets a before b, shard 1 meets b before
  // a, and c appears only in shard 2. Each class owns its own value band,
  // so a label counted under the wrong class changes the fitted plan.
  Dataset data({"x", "y"}, {"a", "b", "c"});
  Rng rng(5);
  for (size_t r = 0; r < 90; ++r) {
    ClassId label = static_cast<ClassId>(r % 2);
    if (r >= 30 && r < 60) label = 1 - label;
    if (r >= 60 && r % 3 == 0) label = 2;
    data.AddRow({static_cast<AttrValue>(10 * label + rng.UniformInt(0, 6)),
                 static_cast<AttrValue>(rng.UniformInt(0, 20))},
                label);
  }
  const std::string input = WriteInput(data, "class_orders.csv", false);
  std::string golden_plan;
  const std::string golden = StreamReleaseBytes(input, 8, 11, &golden_plan);
  for (const size_t threads : {1, 3}) {
    const std::string out = TempPath("class_orders_out");
    auto plan = ShardedCustodian::Release(
        input, out, BaseOptions(3, threads, 8, 11), nullptr);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_EQ(SerializePlan(plan.value()), golden_plan);
    EXPECT_EQ(ConcatShards(out, 3), golden);
  }
}

TEST_F(ShardReleaseTest, EmptyInputIsInvalidArgument) {
  Schema schema({"a"}, {"x"});
  Dataset empty(schema);
  const std::string input = WriteInput(empty, "empty.csv", false);
  const std::string out = TempPath("empty_out");
  auto plan =
      ShardedCustodian::Release(input, out, BaseOptions(3, 2, 16, 1), nullptr);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
}

// --------------------------------------------------- crash and resume --

TEST(ShardResumeTest, FaultsAnywhereResumeToIdenticalBytes) {
  // Cols input so phase-1 reads are injected too; thread mode so the
  // failpoint stays in-process. Schedules sample the op range edge to
  // edge, alternating clean errors and simulated kills.
  const Dataset data = CovtypeLikeData(150, 23);
  const std::string input = WriteInput(data, "resume.cols", true);
  std::string golden_plan;
  const std::string golden = StreamReleaseBytes(input, 40, 21, &golden_plan);
  const ShardOptions options = BaseOptions(3, 2, 40, 21);
  const std::string out = TempPath("resume_out");

  size_t total_ops = 0;
  {
    fault::ScopedFaultInjection probe(fault::FaultSchedule::CountOnly());
    auto counted = ShardedCustodian::Release(input, TempPath("resume_probe"),
                                             options, nullptr);
    ASSERT_TRUE(counted.ok()) << counted.status().ToString();
    total_ops = probe.ops_seen();
  }
  ASSERT_GT(total_ops, 0u);

  const size_t kSchedules = 8;
  for (size_t k = 0; k < kSchedules; ++k) {
    const size_t fire_at = k * (total_ops - 1) / (kSchedules - 1);
    const bool crash = k % 2 == 0;
    SCOPED_TRACE("schedule " + std::to_string(k) + ": " +
                 (crash ? "crash" : "error") + " at op " +
                 std::to_string(fire_at) + "/" + std::to_string(total_ops));
    {
      fault::ScopedFaultInjection inject(
          crash ? fault::FaultSchedule::CrashAt(fire_at, 0.4)
                : fault::FaultSchedule::ErrorAt(fire_at, 0.4));
      auto faulted = ShardedCustodian::Release(input, out, options, nullptr);
      ASSERT_TRUE(inject.fired());
      if (crash) {
        ASSERT_FALSE(faulted.ok());
      }
    }
    ShardOptions resume = options;
    resume.resume = true;
    auto recovered = ShardedCustodian::Release(input, out, resume, nullptr);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ(SerializePlan(recovered.value()), golden_plan);
    EXPECT_EQ(ConcatShards(out, 3), golden);
    const uint64_t crc = Crc64(golden_plan);
    EXPECT_TRUE(shard::VerifyShardedRelease(out, &crc, nullptr).ok());
    // Journals retired, no summary debris.
    for (size_t s = 0; s < 3; ++s) {
      EXPECT_FALSE(
          fault::FileExists(shard::ShardFilePath(out, s) + ".manifest"));
      EXPECT_FALSE(
          fault::FileExists(shard::ShardFilePath(out, s) + ".partial"));
      EXPECT_FALSE(fault::FileExists(shard::ShardSummaryPath(out, s)));
    }
  }
}

TEST(ShardResumeTest, ResumeReusesCompletedShardWork) {
  // Kill late in the run (inside finalize), then resume: the journals
  // must mark every chunk done, so the resumed release redoes no encode.
  const Dataset data = CovtypeLikeData(120, 29);
  const std::string input = WriteInput(data, "reuse.csv", false);
  const ShardOptions options = BaseOptions(2, 2, 30, 2);
  const std::string out = TempPath("reuse_out");

  size_t total_ops = 0;
  {
    fault::ScopedFaultInjection probe(fault::FaultSchedule::CountOnly());
    auto counted = ShardedCustodian::Release(input, TempPath("reuse_probe"),
                                             options, nullptr);
    ASSERT_TRUE(counted.ok()) << counted.status().ToString();
    total_ops = probe.ops_seen();
  }
  {
    // The very last op is a journal retirement after the meta commit.
    fault::ScopedFaultInjection inject(
        fault::FaultSchedule::CrashAt(total_ops - 1));
    auto faulted = ShardedCustodian::Release(input, out, options, nullptr);
    ASSERT_TRUE(inject.fired());
    ASSERT_FALSE(faulted.ok());
  }
  ShardOptions resume = options;
  resume.resume = true;
  ShardStats stats;
  auto recovered = ShardedCustodian::Release(input, out, resume, &stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  // Every chunk of both shards came back from the journals.
  EXPECT_GT(stats.resumed_chunks, 0u);
  std::string golden_plan;
  EXPECT_EQ(ConcatShards(out, 2),
            StreamReleaseBytes(input, 30, 2, &golden_plan));
  EXPECT_EQ(SerializePlan(recovered.value()), golden_plan);
}

TEST(ShardResumeTest, StaleJournalFromOtherLayoutIsNotResumed) {
  // A journal written under a 2-shard layout must not poison a 3-shard
  // resume of the same output path: the salt makes the fingerprints
  // disagree and the shard starts fresh — output still byte-identical.
  const Dataset data = CovtypeLikeData(90, 37);
  const std::string input = WriteInput(data, "salt.csv", false);
  const std::string out = TempPath("salt_out");
  ASSERT_TRUE(ShardedCustodian::Release(input, out,
                                        BaseOptions(2, 1, 25, 5), nullptr)
                  .ok());
  // Rerun under a different shard count with --resume: shard 0's final
  // file from the 2-shard run survives on disk but covers different rows.
  ShardOptions relayout = BaseOptions(3, 1, 25, 5);
  relayout.resume = true;
  auto plan = ShardedCustodian::Release(input, out, relayout, nullptr);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  std::string golden_plan;
  EXPECT_EQ(ConcatShards(out, 3),
            StreamReleaseBytes(input, 25, 5, &golden_plan));
  EXPECT_EQ(SerializePlan(plan.value()), golden_plan);
}

// ------------------------------------------------------ meta-manifest --

TEST(MetaManifestTest, SerializeParseRoundTrips) {
  MetaManifest m;
  m.fingerprint = "chunk_rows=64 ood=reject seed=9 plan_crc=abc";
  m.plan_crc = 0x0123456789abcdefull;
  m.shards.push_back(ShardEntry{0, 100, 2048, 0xdeadbeefull, "r.shard0"});
  m.shards.push_back(ShardEntry{1, 0, 0, 0, "r.shard1"});
  const std::string text = shard::SerializeMetaManifest(m);
  auto parsed = shard::ParseMetaManifest(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(shard::SerializeMetaManifest(parsed.value()), text);
  EXPECT_EQ(parsed.value().fingerprint, m.fingerprint);
  EXPECT_EQ(parsed.value().plan_crc, m.plan_crc);
  ASSERT_EQ(parsed.value().shards.size(), 2u);
  EXPECT_EQ(parsed.value().shards[1].file, "r.shard1");
}

TEST(MetaManifestTest, ParseRejectsTampering) {
  MetaManifest m;
  m.fingerprint = "f";
  m.plan_crc = 7;
  m.shards.push_back(ShardEntry{0, 1, 2, 3, "x.shard0"});
  const std::string text = shard::SerializeMetaManifest(m);
  for (size_t at = 0; at < text.size(); at += 7) {
    std::string bad = text;
    bad[at] ^= 0x04;
    auto parsed = shard::ParseMetaManifest(bad);
    if (parsed.ok()) {
      // A flip may cancel out only if serialization is not canonical —
      // never acceptable.
      ADD_FAILURE() << "tampered byte " << at << " went undetected";
    } else {
      EXPECT_EQ(parsed.status().code(), StatusCode::kDataLoss) << at;
    }
  }
}

TEST(MetaManifestTest, VerifyNamesTheCorruptShard) {
  const Dataset data = CovtypeLikeData(80, 53);
  const std::string input = WriteInput(data, "vm.csv", false);
  const std::string out = TempPath("vm_out");
  auto plan = ShardedCustodian::Release(input, out,
                                        BaseOptions(3, 1, 32, 4), nullptr);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_TRUE(shard::VerifyShardedRelease(out).ok());

  // Corrupt shard 1's bytes: DataLoss naming shard 1.
  const std::string victim = shard::ShardFilePath(out, 1);
  const std::string original = Slurp(victim);
  std::string tampered = original;
  ASSERT_FALSE(tampered.empty());
  tampered[tampered.size() / 2] ^= 0x10;
  ASSERT_TRUE(fault::WriteFileAtomic(victim, tampered).ok());
  Status caught = shard::VerifyShardedRelease(out);
  ASSERT_FALSE(caught.ok());
  EXPECT_EQ(caught.code(), StatusCode::kDataLoss);
  EXPECT_NE(caught.message().find("shard 1"), std::string::npos)
      << caught.ToString();

  // Truncation: length mismatch, still naming the shard.
  ASSERT_TRUE(
      fault::WriteFileAtomic(victim, original.substr(0, original.size() / 2))
          .ok());
  caught = shard::VerifyShardedRelease(out);
  ASSERT_FALSE(caught.ok());
  EXPECT_EQ(caught.code(), StatusCode::kDataLoss);
  EXPECT_NE(caught.message().find("shard 1"), std::string::npos);

  // A missing shard keeps the NotFound taxonomy (exit 3, not 4).
  ASSERT_TRUE(fault::RemoveFile(victim).ok());
  caught = shard::VerifyShardedRelease(out);
  ASSERT_FALSE(caught.ok());
  EXPECT_EQ(caught.code(), StatusCode::kNotFound);

  // Restored bytes verify again.
  ASSERT_TRUE(fault::WriteFileAtomic(victim, original).ok());
  EXPECT_TRUE(shard::VerifyShardedRelease(out).ok());
}

TEST(MetaManifestTest, WrongKeyIsRejected) {
  const Dataset data = CovtypeLikeData(60, 3);
  const std::string input = WriteInput(data, "key.csv", false);
  const std::string out = TempPath("key_out");
  auto plan = ShardedCustodian::Release(input, out,
                                        BaseOptions(2, 1, 32, 4), nullptr);
  ASSERT_TRUE(plan.ok());
  const uint64_t right = Crc64(SerializePlan(plan.value()));
  ASSERT_TRUE(shard::VerifyShardedRelease(out, &right, nullptr).ok());
  const uint64_t wrong = right ^ 1;
  Status caught = shard::VerifyShardedRelease(out, &wrong, nullptr);
  ASSERT_FALSE(caught.ok());
  EXPECT_EQ(caught.code(), StatusCode::kDataLoss);
  EXPECT_NE(caught.message().find("wrong key"), std::string::npos)
      << caught.ToString();
}

// ------------------------------------------------ forked worker mode --
// (ShardProcess* suites fork(); sanitizer stages that cannot host fork
// filter them with --gtest_filter=-*ShardProcess*.)

TEST(ShardProcessTest, ByteIdentityAcrossForkedWorkers) {
  // Random data in both formats, plus a covertype-like CSV whose plan has
  // monochromatic, bijective pieces. Each release is held to the stream
  // golden and to the batch release `popp encode` writes for the input.
  struct Input {
    Dataset data;
    std::string name;
    bool cols;
    size_t shards;
    bool permutes;  // the plan must permute a multi-value piece
  };
  Rng rng(61);
  const Dataset random = CovtypeLikeData(130, 61);
  const Input inputs[] = {
      {random, "proc.csv", false, 3, false},
      {random, "proc.cols", true, 3, false},
      {GenerateCovtypeLike(SmallCovtypeSpec(400), rng), "proc_covtype.csv",
       false, 4, true},
  };
  for (const Input& in : inputs) {
    const std::string input = WriteInput(in.data, in.name, in.cols);
    std::string golden_plan;
    const std::string golden = StreamReleaseBytes(input, 48, 6, &golden_plan);
    auto read = in.cols ? ReadCols(input) : ReadCsv(input);
    ASSERT_TRUE(read.ok()) << read.status().ToString() << " " << in.name;
    Rng batch_rng(6);
    const TransformPlan batch =
        TransformPlan::Create(read.value(), PiecewiseOptions{}, batch_rng);
    if (in.permutes) {
      size_t permuted = 0;
      for (size_t a = 0; a < batch.NumAttributes(); ++a) {
        for (size_t p = 0; p < batch.transform(a).NumPieces(); ++p) {
          const auto& piece = batch.transform(a).piece(p);
          permuted += piece.bijective && piece.domain_lo < piece.domain_hi;
        }
      }
      EXPECT_GT(permuted, 0u) << in.name;
    }
    const std::string out = TempPath("proc_out");
    ShardOptions options = BaseOptions(in.shards, 2, 48, 6);
    options.workers_mode = shard::WorkersMode::kProcess;
    ShardStats stats;
    auto plan = ShardedCustodian::Release(input, out, options, &stats);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString() << " " << in.name;
    EXPECT_EQ(SerializePlan(plan.value()), golden_plan) << in.name;
    EXPECT_EQ(SerializePlan(plan.value()), SerializePlan(batch)) << in.name;
    const std::string released = ConcatShards(out, in.shards);
    EXPECT_EQ(released, golden) << in.name;
    EXPECT_EQ(released, ToCsvString(batch.EncodeDataset(read.value())))
        << in.name;
    EXPECT_EQ(stats.rows, in.data.NumRows());
    // The summary hand-off artifacts are consumed and removed.
    for (size_t k = 0; k < in.shards; ++k) {
      EXPECT_FALSE(fault::FileExists(shard::ShardSummaryPath(out, k)));
    }
    const uint64_t crc = Crc64(golden_plan);
    EXPECT_TRUE(shard::VerifyShardedRelease(out, &crc, nullptr).ok());
  }
}

TEST(ShardProcessTest, SingleShardDegenerateAlsoForks) {
  const Dataset data = CovtypeLikeData(70, 67);
  const std::string input = WriteInput(data, "proc1.csv", false);
  std::string golden_plan;
  const std::string golden = StreamReleaseBytes(input, 24, 8, &golden_plan);
  const std::string out = TempPath("proc1_out");
  ShardOptions options = BaseOptions(1, 2, 24, 8);
  options.workers_mode = shard::WorkersMode::kProcess;
  auto plan = ShardedCustodian::Release(input, out, options, nullptr);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(SerializePlan(plan.value()), golden_plan);
  EXPECT_EQ(Slurp(shard::ShardFilePath(out, 0)), golden);
}

TEST(ShardProcessTest, WorkerFailureSurfacesThroughExitCodes) {
  // An unwritable output location fails inside the forked workers; the
  // coordinator must map the exit code back onto the I/O Status taxonomy.
  const Dataset data = CovtypeLikeData(40, 71);
  const std::string input = WriteInput(data, "procfail.csv", false);
  const std::string out =
      testing::TempDir() + "/popp_no_such_dir/sub/release";
  ShardOptions options = BaseOptions(2, 1, 16, 1);
  options.workers_mode = shard::WorkersMode::kProcess;
  auto plan = ShardedCustodian::Release(input, out, options, nullptr);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kIoError);
  EXPECT_NE(plan.status().message().find("worker"), std::string::npos)
      << plan.status().ToString();
}

TEST(ShardProcessTest, UnusualCsvTextMatchesStreamRelease) {
  const std::string input = TempPath("proc_unusual.csv");
  ASSERT_TRUE(
      fault::WriteFileAtomic(input, UnusualCsvText(3000, 29)).ok());
  std::string golden_plan;
  const std::string golden = StreamReleaseBytes(input, 64, 2, &golden_plan);
  const std::string out = TempPath("proc_unusual_out");
  ShardOptions options = BaseOptions(3, 2, 64, 2);
  options.workers_mode = shard::WorkersMode::kProcess;
  auto plan = ShardedCustodian::Release(input, out, options, nullptr);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(SerializePlan(plan.value()), golden_plan);
  EXPECT_EQ(ConcatShards(out, 3), golden);
}

TEST(ShardProcessTest, InvalidInputFailsOnceWithoutRestarts) {
  // An inf cell on line 1501 of 2001 falls in shard 2 of 4. The worker
  // rejects its input, which a restart would meet again, so it is not
  // restarted and the release fails with the invalid-input status.
  const Dataset data = CovtypeLikeData(2000, 97);
  const std::string input = TempPath("proc_inf.csv");
  ASSERT_TRUE(fault::WriteFileAtomic(
                  input, WithFirstCell(ToCsvString(data), 1500, "inf"))
                  .ok());
  ShardOptions options = BaseOptions(4, 1, 128, 1);
  options.workers_mode = shard::WorkersMode::kProcess;
  ShardStats stats;
  auto plan = ShardedCustodian::Release(input, TempPath("proc_inf_out"),
                                        options, &stats);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(plan.status().message(), "shard 2 worker failed (invalid input)");
  EXPECT_EQ(stats.worker_restarts, 0u);
}

TEST(ShardProcessTest, StatsMatchThreadMode) {
  // Both worker modes run the same runner; a forked worker's stream stats
  // stay in the child, so the coordinator derives them from the layout.
  // Over one shard, several, and more shards than rows, the two modes
  // must agree on every shard file and on every stat both report.
  struct Layout {
    size_t rows;
    size_t shards;
  };
  for (const Layout layout : {Layout{70, 1}, Layout{70, 3}, Layout{3, 5}}) {
    const std::string where = "rows=" + std::to_string(layout.rows) +
                              " shards=" + std::to_string(layout.shards);
    const Dataset data = CovtypeLikeData(layout.rows, 89);
    const std::string input = WriteInput(data, "stats_modes.csv", false);
    ShardStats stats[2];
    std::string outs[2];
    const shard::WorkersMode modes[2] = {shard::WorkersMode::kThread,
                                         shard::WorkersMode::kProcess};
    for (size_t m = 0; m < 2; ++m) {
      ShardOptions options = BaseOptions(layout.shards, 2, 32, 13);
      options.workers_mode = modes[m];
      outs[m] = TempPath(m == 0 ? "stats_thread_out" : "stats_process_out");
      auto plan = ShardedCustodian::Release(input, outs[m], options, &stats[m]);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString() << " " << where;
    }
    for (size_t k = 0; k < layout.shards; ++k) {
      EXPECT_EQ(Slurp(shard::ShardFilePath(outs[0], k)),
                Slurp(shard::ShardFilePath(outs[1], k)))
          << where << " shard " << k;
    }
    EXPECT_EQ(stats[0].rows, layout.rows) << where;
    EXPECT_EQ(stats[1].rows, stats[0].rows) << where;
    EXPECT_EQ(stats[1].shards, stats[0].shards) << where;
    EXPECT_EQ(stats[1].empty_shards, stats[0].empty_shards) << where;
    EXPECT_EQ(stats[1].released_bytes, stats[0].released_bytes) << where;
    EXPECT_EQ(stats[1].peak_resident_rows, stats[0].peak_resident_rows)
        << where;
  }
}

// -------------------------------------------------- startup debris sweep --

/// A fresh directory so the sweep's directory scan sees only what the
/// test plants there.
std::string FreshSweepDir(const std::string& name) {
  const std::string dir = TempPath("sweep_" + name);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  EXPECT_FALSE(ec) << ec.message();
  return dir;
}

void Plant(const std::string& path, const std::string& bytes = "debris") {
  ASSERT_TRUE(fault::WriteFileAtomic(path, bytes).ok()) << path;
}

TEST(ShardSweepTest, RemovesOnlyOrphanedWorkingFiles) {
  const std::string dir = FreshSweepDir("unit");
  const std::string out = dir + "/release";
  // Debris of this stem: every working suffix, chained temporaries, and
  // the torn meta-manifest temp.
  // Survivors: live payloads, the published meta-manifest, the input,
  // other stems, and look-alikes that fail the matcher. Planted before
  // the debris because the atomic writer stages each survivor through
  // its own `.tmp` name — which for `out` IS one of the debris names.
  const std::vector<std::string> survivors = {
      out,                       out + ".shard0",
      out + ".shard12",          dir + "/input.csv",
      dir + "/other.shard0.sum", out + ".shardX.sum",
      out + ".shard0.sumX",      out + ".shard0.backup"};
  for (const std::string& path : survivors) Plant(path, "live");
  const std::vector<std::string> debris = {
      out + ".shard0.sum",     out + ".shard1.partial",
      out + ".shard2.manifest", out + ".shard0.hb",
      out + ".shard3.sum.tmp", out + ".tmp"};
  for (const std::string& path : debris) Plant(path);

  auto swept = shard::SweepOrphanedShardFiles(out);
  ASSERT_TRUE(swept.ok()) << swept.status().ToString();
  EXPECT_EQ(swept.value(), debris.size());
  for (const std::string& path : debris) {
    EXPECT_FALSE(fault::FileExists(path)) << path;
  }
  for (const std::string& path : survivors) {
    EXPECT_TRUE(fault::FileExists(path)) << path;
    EXPECT_EQ(Slurp(path), "live") << path;
  }
  // Idempotent: a second sweep finds nothing.
  auto again = shard::SweepOrphanedShardFiles(out);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), 0u);
}

TEST(ShardSweepTest, FreshReleaseSweepsDebrisAndConverges) {
  const Dataset data = CovtypeLikeData(80, 41);
  const std::string dir = FreshSweepDir("fresh");
  const std::string input = dir + "/in.csv";
  ASSERT_TRUE(fault::WriteFileAtomic(input, ToCsvString(data)).ok());
  std::string golden_plan;
  const std::string golden = StreamReleaseBytes(input, 25, 3, &golden_plan);
  const std::string out = dir + "/rel";
  Plant(out + ".shard0.manifest");
  Plant(out + ".shard1.sum");
  Plant(out + ".tmp");

  ShardStats stats;
  auto plan =
      ShardedCustodian::Release(input, out, BaseOptions(2, 1, 25, 3), &stats);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(stats.swept_files, 3u);
  EXPECT_EQ(ConcatShards(out, 2), golden);
  EXPECT_EQ(SerializePlan(plan.value()), golden_plan);
  EXPECT_TRUE(shard::VerifyShardedRelease(out).ok());
}

TEST(ShardSweepTest, ResumeKeepsWorkingFiles) {
  // --resume must NOT sweep: surviving journals ARE the resume state, so
  // even an unrelated planted working file stays untouched.
  const Dataset data = CovtypeLikeData(70, 43);
  const std::string dir = FreshSweepDir("resume");
  const std::string input = dir + "/in.csv";
  ASSERT_TRUE(fault::WriteFileAtomic(input, ToCsvString(data)).ok());
  const std::string out = dir + "/rel";
  ShardOptions options = BaseOptions(2, 1, 20, 5);
  ASSERT_TRUE(ShardedCustodian::Release(input, out, options, nullptr).ok());

  const std::string planted = out + ".shard0.hb";
  Plant(planted);
  options.resume = true;
  ShardStats stats;
  auto plan = ShardedCustodian::Release(input, out, options, &stats);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(stats.swept_files, 0u);
  EXPECT_TRUE(fault::FileExists(planted));
}

TEST(ShardSweepTest, PublishedReleaseIsNeverSwept) {
  // Regression for the sweep matcher: after a complete publish, a sweep
  // over the same stem must remove nothing and leave the release
  // verifiable with identical bytes.
  const Dataset data = CovtypeLikeData(90, 47);
  const std::string dir = FreshSweepDir("live");
  const std::string input = dir + "/in.cols";
  ASSERT_TRUE(fault::WriteFileAtomic(input, SerializeCols(data)).ok());
  const std::string out = dir + "/rel";
  auto plan = ShardedCustodian::Release(input, out,
                                        BaseOptions(3, 2, 30, 7), nullptr);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const std::string before = ConcatShards(out, 3);
  auto swept = shard::SweepOrphanedShardFiles(out);
  ASSERT_TRUE(swept.ok());
  EXPECT_EQ(swept.value(), 0u);
  EXPECT_EQ(ConcatShards(out, 3), before);
  const uint64_t crc = Crc64(SerializePlan(plan.value()));
  EXPECT_TRUE(shard::VerifyShardedRelease(out, &crc, nullptr).ok());
}

// ---------------------------------------- supervised forked worker mode --
// (fork-based like the other ShardProcess* suites; the TSan stage's
// -*ShardProcess* filter covers this suite too.)

/// Drives supervised process-mode releases with `kind` injected into a
/// forked child: scans fault-op indices (child_only + a one-shot token,
/// so the coordinator never stalls and a restarted worker never
/// re-fires) until a schedule lands inside a worker, then returns that
/// trial's stats through `stats`. Returns false if no index fired.
bool DriveChildFault(fault::Injection::Kind kind, uint32_t delay_ms,
                     const std::string& input, const std::string& out,
                     ShardOptions options, ShardStats* stats) {
  options.workers_mode = shard::WorkersMode::kProcess;
  size_t total_ops = 0;
  {
    fault::ScopedFaultInjection probe(fault::FaultSchedule::CountOnly());
    auto counted =
        ShardedCustodian::Release(input, out + "_probe", options, nullptr);
    EXPECT_TRUE(counted.ok()) << counted.status().ToString();
    total_ops = probe.ops_seen();
  }
  const std::string token = out + "_token";
  for (size_t fire_at = 0; fire_at < total_ops; ++fire_at) {
    EXPECT_TRUE(fault::WriteFileAtomic(token, "armed").ok());
    fault::FaultSchedule schedule;
    schedule.fire_at = fire_at;
    schedule.kind = kind;
    schedule.delay_ms = delay_ms;
    schedule.child_only = true;
    schedule.one_shot_token = token;
    {
      fault::ScopedFaultInjection inject(schedule);
      auto plan = ShardedCustodian::Release(input, out, options, stats);
      EXPECT_TRUE(plan.ok()) << plan.status().ToString() << " at op "
                             << fire_at;
    }
    // The token vanished iff some child consumed it and fired.
    if (!fault::FileExists(token)) return true;
    (void)fault::RemoveFile(token);
  }
  return false;
}

TEST(ShardProcessSupervisionTest, WatchdogKillsHungWorkerAndConverges) {
  const Dataset data = CovtypeLikeData(60, 73);
  const std::string input = WriteInput(data, "sup_hang.csv", false);
  std::string golden_plan;
  const std::string golden = StreamReleaseBytes(input, 20, 9, &golden_plan);
  const std::string out = TempPath("sup_hang_out");
  ShardOptions options = BaseOptions(2, 1, 20, 9);
  options.worker_deadline_ms = 200;
  options.max_worker_restarts = 2;

  // A worker stalls 5 s mid-operation — far past the 200 ms deadline —
  // so the watchdog must SIGKILL it; the restarted attempt (the delay is
  // one-shot) finishes, and the release is byte-identical anyway.
  ShardStats stats;
  ASSERT_TRUE(DriveChildFault(fault::Injection::Kind::kDelay, 5000, input,
                              out, options, &stats))
      << "no fault-op index landed inside a forked worker";
  EXPECT_GE(stats.workers_killed, 1u);
  EXPECT_GE(stats.worker_restarts, 1u);
  EXPECT_EQ(ConcatShards(out, 2), golden);
  const uint64_t crc = Crc64(golden_plan);
  EXPECT_TRUE(shard::VerifyShardedRelease(out, &crc, nullptr).ok());
  // Supervision leaves no working debris: heartbeats are removed when a
  // task settles.
  for (size_t k = 0; k < 2; ++k) {
    EXPECT_FALSE(
        fault::FileExists(shard::ShardFilePath(out, k) + ".hb"));
  }
}

TEST(ShardProcessSupervisionTest, CrashedWorkerIsRestartedAndConverges) {
  const Dataset data = CovtypeLikeData(60, 79);
  const std::string input = WriteInput(data, "sup_crash.csv", false);
  std::string golden_plan;
  const std::string golden = StreamReleaseBytes(input, 20, 9, &golden_plan);
  const std::string out = TempPath("sup_crash_out");
  ShardOptions options = BaseOptions(2, 1, 20, 9);
  options.max_worker_restarts = 2;

  // A worker dies mid-run (simulated kill); the supervisor restarts it
  // with the attempt number, so a restarted encode resumes its journal —
  // and the release still converges to the exact golden bytes.
  ShardStats stats;
  ASSERT_TRUE(DriveChildFault(fault::Injection::Kind::kCrash, 0, input, out,
                              options, &stats))
      << "no fault-op index landed inside a forked worker";
  EXPECT_GE(stats.worker_restarts, 1u);
  EXPECT_EQ(ConcatShards(out, 2), golden);
  EXPECT_EQ(stats.workers_killed, 0u);  // a crash is not a hang
  const uint64_t crc = Crc64(golden_plan);
  EXPECT_TRUE(shard::VerifyShardedRelease(out, &crc, nullptr).ok());
}

// ---------------------------------------------------------- the oracle --

TEST(ShardOracleTest, ShardVsStreamHoldsOnRandomCases) {
  // A bounded in-test sweep of the oracle; ci_check and popp_check run
  // the large randomized batches.
  const Dataset data = CovtypeLikeData(90, 83);
  Rng plan_rng(19);
  const TransformPlan plan =
      TransformPlan::Create(data, PiecewiseOptions{}, plan_rng);
  const Dataset released = plan.EncodeDataset(data);
  for (const size_t shards : {1, 3}) {
    const auto result = check::CheckShardVsStream(
        data, plan, released, /*plan_seed=*/19, PiecewiseOptions{}, shards,
        /*num_threads=*/2, /*chunk_rows=*/33, /*use_cols=*/shards == 3,
        /*num_fault_schedules=*/3);
    EXPECT_TRUE(result.passed) << result.message;
  }
}

}  // namespace
}  // namespace popp
