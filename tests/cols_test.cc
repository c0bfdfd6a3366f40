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
#include "stream/chunk_io.h"
#include "stream/cols_io.h"
#include "stream/streaming_custodian.h"
#include "temp_path.h"
#include "transform/serialize.h"
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
