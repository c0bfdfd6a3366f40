#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <string>
#include <vector>

#include "data/csv.h"
#include "data/summary.h"
#include "fault/failpoint.h"
#include "fault/file.h"
#include "stream/chunk_io.h"
#include "stream/manifest.h"
#include "stream/incremental_summary.h"
#include "stream/ood_policy.h"
#include "stream/streaming_custodian.h"
#include "synth/covtype_like.h"
#include "synth/presets.h"
#include "temp_path.h"
#include "transform/compiled.h"
#include "transform/plan.h"
#include "transform/serialize.h"
#include "tree/builder.h"
#include "tree/compare.h"
#include "util/rng.h"

namespace popp {
namespace {

using stream::CsvChunkReader;
using stream::DatasetChunkReader;
using stream::DatasetChunkWriter;
using stream::IncrementalSummary;
using stream::OodPolicy;
using stream::ResumableCsvChunkWriter;
using stream::StreamingCustodian;
using stream::StreamOptions;
using stream::StreamStats;

Dataset CovtypeLikeData(size_t rows = 800, uint64_t seed = 31) {
  Rng rng(seed);
  return GenerateCovtypeLike(SmallCovtypeSpec(rows), rng);
}

std::string WriteTempCsv(const Dataset& d, const std::string& name) {
  const std::string path = TempPath(name);
  EXPECT_TRUE(WriteCsv(d, path).ok());
  return path;
}

/// The file sink publishes by renaming `<path>.partial` into place and
/// retires its journal: after Close no working file may remain.
void ExpectNoWorkingFiles(const std::string& path) {
  for (const char* suffix : {".partial", ".manifest", ".tmp"}) {
    EXPECT_FALSE(fault::FileExists(path + suffix)) << path << suffix;
  }
}

/// The batch baseline every streamed release is compared against.
struct Batch {
  TransformPlan plan;
  Dataset released;
};

Batch BatchRelease(const Dataset& data, uint64_t seed) {
  Rng rng(seed);
  Batch b;
  b.plan = TransformPlan::Create(data, PiecewiseOptions{}, rng);
  b.released = b.plan.EncodeDataset(data);
  return b;
}

// ------------------------------------------------- incremental summary --

/// About 20k distinct real values in one column (the released shape):
/// the streamed summary's value index grows through many rehashes.
Dataset RealValuedData() {
  Dataset d({"u", "k"}, {"a", "b", "c"});
  Rng rng(57);
  for (size_t i = 0; i < 20000; ++i) {
    d.AddRow({rng.Uniform(-1e3, 1e3), std::floor(rng.Uniform(-40, 40))},
             static_cast<ClassId>(rng.Next() % 3));
  }
  return d;
}

TEST(IncrementalSummaryTest, AbsorbEqualsBatchSummary) {
  for (const Dataset& data : {CovtypeLikeData(500), RealValuedData()}) {
    IncrementalSummary inc(data.NumAttributes());
    DatasetChunkReader reader(&data);
    for (;;) {
      auto chunk = reader.NextChunk(37);
      ASSERT_TRUE(chunk.ok());
      if (chunk.value().NumRows() == 0) break;
      inc.Absorb(chunk.value());
    }
    EXPECT_EQ(inc.NumRows(), data.NumRows());
    for (size_t attr = 0; attr < data.NumAttributes(); ++attr) {
      const AttributeSummary batch = AttributeSummary::FromDataset(data, attr);
      const AttributeSummary streamed = inc.Summarize(attr);
      ASSERT_EQ(streamed.NumDistinct(), batch.NumDistinct())
          << "attr " << attr;
      ASSERT_EQ(streamed.NumTuples(), batch.NumTuples());
      for (size_t i = 0; i < batch.NumDistinct(); ++i) {
        ASSERT_EQ(streamed.ValueAt(i), batch.ValueAt(i));
        ASSERT_EQ(streamed.CountAt(i), batch.CountAt(i));
        for (size_t c = 0; c < data.NumClasses(); ++c) {
          ASSERT_EQ(streamed.ClassCountAt(i, c), batch.ClassCountAt(i, c));
        }
      }
    }
  }
}

TEST(IncrementalSummaryTest, MergeEqualsSequentialAbsorb) {
  const Dataset data = CovtypeLikeData(300);
  // Split the stream into three sub-streams, absorb separately, merge in a
  // non-sequential grouping.
  std::vector<IncrementalSummary> parts;
  DatasetChunkReader reader(&data);
  for (;;) {
    auto chunk = reader.NextChunk(100);
    ASSERT_TRUE(chunk.ok());
    if (chunk.value().NumRows() == 0) break;
    IncrementalSummary part(data.NumAttributes());
    part.Absorb(chunk.value());
    parts.push_back(std::move(part));
  }
  ASSERT_EQ(parts.size(), 3u);
  IncrementalSummary merged(data.NumAttributes());
  merged.Merge(parts[2]);
  merged.Merge(parts[0]);
  merged.Merge(parts[1]);
  for (size_t attr = 0; attr < data.NumAttributes(); ++attr) {
    const AttributeSummary batch = AttributeSummary::FromDataset(data, attr);
    const AttributeSummary streamed = merged.Summarize(attr);
    ASSERT_EQ(streamed.NumDistinct(), batch.NumDistinct());
    for (size_t i = 0; i < batch.NumDistinct(); ++i) {
      ASSERT_EQ(streamed.ValueAt(i), batch.ValueAt(i));
      ASSERT_EQ(streamed.CountAt(i), batch.CountAt(i));
    }
  }
}

// --------------------------------------------------------- chunked csv --

TEST(ChunkIoTest, CsvReaderMatchesReadCsvAcrossChunkSizes) {
  const Dataset data = CovtypeLikeData(200);
  const std::string path = WriteTempCsv(data, "stream_reader.csv");
  for (const size_t chunk_rows : {1u, 7u, 64u, 1000u}) {
    // A tiny read buffer forces records to span buffer seams.
    CsvChunkReader reader(path, CsvOptions{}, /*buffer_bytes=*/13);
    DatasetChunkWriter collector;
    for (;;) {
      auto chunk = reader.NextChunk(chunk_rows);
      ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
      if (chunk.value().NumRows() == 0) break;
      ASSERT_LE(chunk.value().NumRows(), chunk_rows);
      ASSERT_TRUE(collector.Append(chunk.value()).ok());
    }
    EXPECT_EQ(collector.collected(), data) << "chunk_rows=" << chunk_rows;
  }
}

TEST(ChunkIoTest, CsvWriterConcatenatesToOneShotBytes) {
  const Dataset data = CovtypeLikeData(150);
  const std::string path = TempPath("stream_writer.csv");
  ResumableCsvChunkWriter writer(path);
  DatasetChunkReader reader(&data);
  for (;;) {
    auto chunk = reader.NextChunk(11);
    ASSERT_TRUE(chunk.ok());
    if (chunk.value().NumRows() == 0) break;
    ASSERT_TRUE(writer.Append(chunk.value()).ok());
  }
  ASSERT_TRUE(writer.Close().ok());
  std::ifstream in(path, std::ios::binary);
  std::string written((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(written, ToCsvString(data));
  ExpectNoWorkingFiles(path);
}

TEST(ChunkIoTest, RewindRestartsFromFirstRow) {
  const Dataset data = CovtypeLikeData(150);
  const std::string path = WriteTempCsv(data, "stream_rewind.csv");
  CsvChunkReader reader(path);
  auto first = reader.NextChunk(10);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(reader.Rewind().ok());
  auto again = reader.NextChunk(10);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(first.value(), again.value());
}

TEST(ChunkIoTest, EmptyCsvReportsError) {
  const std::string path = TempPath("stream_empty.csv");
  std::ofstream(path, std::ios::binary).close();
  CsvChunkReader reader(path);
  auto chunk = reader.NextChunk(10);
  EXPECT_FALSE(chunk.ok());
}

// ------------------------------------------------- streamed == batched --

TEST(StreamReleaseTest, BitIdenticalAcrossChunkSizesAndThreads) {
  const Dataset data = CovtypeLikeData(600, /*seed=*/5);
  const uint64_t seed = 17;
  const Batch batch = BatchRelease(data, seed);
  const std::string batch_csv = ToCsvString(batch.released);
  const std::string batch_key = SerializePlan(batch.plan);
  const size_t chunk_sizes[] = {1, 7, 256, data.NumRows()};
  for (const size_t chunk_rows : chunk_sizes) {
    for (const size_t threads : {1u, 4u}) {
      StreamOptions options;
      options.chunk_rows = chunk_rows;
      options.seed = seed;
      options.exec = ExecPolicy{threads};
      DatasetChunkReader reader(&data);
      DatasetChunkWriter writer;
      StreamStats stats;
      auto plan = StreamingCustodian::Release(reader, writer, options,
                                              &stats);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      EXPECT_EQ(SerializePlan(plan.value()), batch_key)
          << "chunk_rows=" << chunk_rows << " threads=" << threads;
      EXPECT_EQ(ToCsvString(writer.collected()), batch_csv)
          << "chunk_rows=" << chunk_rows << " threads=" << threads;
      EXPECT_EQ(stats.rows, data.NumRows());
      EXPECT_LE(stats.peak_resident_rows, chunk_rows);
      EXPECT_EQ(stats.ood_total, 0u);
    }
  }
}

TEST(StreamReleaseTest, FromCsvFileMatchesBatch) {
  const Dataset data = CovtypeLikeData(300, /*seed=*/8);
  const std::string in_path = WriteTempCsv(data, "stream_in.csv");
  const uint64_t seed = 3;
  const Batch batch = BatchRelease(data, seed);
  StreamOptions options;
  options.chunk_rows = 53;
  options.seed = seed;
  CsvChunkReader reader(in_path);
  const std::string out_path = TempPath("stream_out.csv");
  ResumableCsvChunkWriter writer(out_path);
  auto plan = StreamingCustodian::Release(reader, writer, options);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  std::ifstream in(out_path, std::ios::binary);
  std::string released((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(released, ToCsvString(batch.released));
  EXPECT_EQ(SerializePlan(plan.value()), SerializePlan(batch.plan));
  ExpectNoWorkingFiles(out_path);
}

TEST(StreamReleaseTest, MinedTreesIdenticalForGiniAndEntropy) {
  const Dataset data = CovtypeLikeData(500, /*seed=*/11);
  const uint64_t seed = 23;
  const Batch batch = BatchRelease(data, seed);
  for (const size_t chunk_rows : {7u, 256u}) {
    StreamOptions options;
    options.chunk_rows = chunk_rows;
    options.seed = seed;
    DatasetChunkReader reader(&data);
    DatasetChunkWriter writer;
    auto plan = StreamingCustodian::Release(reader, writer, options);
    ASSERT_TRUE(plan.ok());
    for (const SplitCriterion criterion :
         {SplitCriterion::kGini, SplitCriterion::kEntropy}) {
      BuildOptions build;
      build.criterion = criterion;
      const DecisionTreeBuilder builder(build);
      const DecisionTree from_stream = builder.Build(writer.collected());
      const DecisionTree from_batch = builder.Build(batch.released);
      EXPECT_TRUE(ExactlyEqual(from_stream, from_batch))
          << "chunk_rows=" << chunk_rows
          << ": " << DescribeDifference(from_stream, from_batch);
    }
  }
}

// -------------------------------------------------------- ood policies --

constexpr size_t kPrefixRows = 60;

/// A stream whose tail exceeds the hull of its first kPrefixRows rows on
/// attribute 0.
Dataset PrefixPlusOutliers() {
  Dataset d({"x", "y"}, {"a", "b"});
  for (size_t i = 0; i < kPrefixRows; ++i) {
    d.AddRow({static_cast<AttrValue>(10 + i % 20),
              static_cast<AttrValue>(5 + (i * 7) % 11)},
             static_cast<ClassId>(i % 2));
  }
  // Tail rows outside [10, 29] on x (both sides).
  d.AddRow({120, 7}, 0);
  d.AddRow({-40, 8}, 1);
  d.AddRow({121, 9}, 0);
  return d;
}

/// The key a custodian fitted on the stream's first kPrefixRows rows.
TransformPlan PrefixPlan(const Dataset& data) {
  std::vector<size_t> rows(kPrefixRows);
  for (size_t r = 0; r < kPrefixRows; ++r) rows[r] = r;
  Rng rng(5);
  return TransformPlan::Create(data.Select(rows), PiecewiseOptions{}, rng);
}

/// Encodes all of `data` under PrefixPlan(data) with `policy`.
Result<TransformPlan> ReleaseUnderPrefixPlan(const Dataset& data,
                                             OodPolicy policy,
                                             DatasetChunkWriter& writer,
                                             StreamStats* stats = nullptr) {
  StreamOptions options;
  options.chunk_rows = 10;
  options.ood_policy = policy;
  DatasetChunkReader reader(&data);
  return StreamingCustodian::ReleaseWithPlan(reader, writer, PrefixPlan(data),
                                             options, stats);
}

TEST(OodPolicyTest, RejectFailsWithActionableError) {
  const Dataset data = PrefixPlusOutliers();
  DatasetChunkWriter writer;
  auto plan = ReleaseUnderPrefixPlan(data, OodPolicy::kReject, writer);
  ASSERT_FALSE(plan.ok());
  const std::string message = plan.status().ToString();
  // Actionable: names the attribute, the offending value, the hull, and
  // the active policy.
  EXPECT_NE(message.find("attribute 'x'"), std::string::npos) << message;
  EXPECT_NE(message.find("120"), std::string::npos) << message;
  EXPECT_NE(message.find("fitted domain"), std::string::npos) << message;
  EXPECT_NE(message.find("reject"), std::string::npos) << message;
  EXPECT_NE(message.find("stream row 61"), std::string::npos) << message;
}

TEST(OodPolicyTest, ClampEncodesOutliersToHullImages) {
  const Dataset data = PrefixPlusOutliers();
  DatasetChunkWriter writer;
  StreamStats stats;
  auto plan = ReleaseUnderPrefixPlan(data, OodPolicy::kClamp, writer, &stats);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(stats.ood_total, 3u);
  EXPECT_EQ(stats.ood_by_attribute[0], 3u);
  const Dataset& out = writer.collected();
  ASSERT_EQ(out.NumRows(), data.NumRows());
  const PiecewiseTransform& t = plan.value().transform(0);
  const auto hull = DomainBounds::Of(t);
  // Outliers collide with the nearest hull endpoint's image.
  EXPECT_EQ(out.Column(0)[60], t.Apply(hull.hi));
  EXPECT_EQ(out.Column(0)[61], t.Apply(hull.lo));
  EXPECT_EQ(out.Column(0)[62], t.Apply(hull.hi));
}

TEST(OodPolicyTest, ExtendPiecePreservesOrderBeyondHull) {
  const Dataset data = PrefixPlusOutliers();
  DatasetChunkWriter writer;
  StreamStats stats;
  auto plan =
      ReleaseUnderPrefixPlan(data, OodPolicy::kExtendPiece, writer, &stats);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(stats.ood_total, 3u);
  const Dataset& out = writer.collected();
  const PiecewiseTransform& t = plan.value().transform(0);
  const auto hull = DomainBounds::Of(t);
  // Order against every in-hull image survives: 120 and 121 land strictly
  // beyond the image of the hull max (global-monotone default), -40
  // strictly below the image of the hull min — and 120 < 121 is kept.
  EXPECT_GT(out.Column(0)[60], t.Apply(hull.hi));
  EXPECT_LT(out.Column(0)[61], t.Apply(hull.lo));
  EXPECT_GT(out.Column(0)[62], out.Column(0)[60]);
}

TEST(OodPolicyTest, UnseenValueInsideBijectivePieceIsOutOfDomain) {
  // Two monochromatic runs, {0, 2, ..., 38} of class a and {100, ..., 138}
  // of class b, fit one permutation piece each. x = 17 lies inside the
  // first piece's domain but is not one of its values, so Apply snaps it
  // onto the image of 16 or 18.
  Dataset data({"x"}, {"a", "b"});
  for (int i = 0; i < 20; ++i) data.AddRow({AttrValue(2 * i)}, 0);
  for (int i = 0; i < 20; ++i) data.AddRow({AttrValue(100 + 2 * i)}, 1);
  Rng rng(5);
  const TransformPlan plan =
      TransformPlan::Create(data, PiecewiseOptions{}, rng);
  ASSERT_TRUE(plan.transform(0).piece(0).bijective);
  data.AddRow({17}, 0);

  // Covers agrees with and without the LUT: exactly the fitted values are
  // covered inside the permutation pieces, everything in the gap is.
  const CompiledTransform lut = CompiledTransform::Compile(plan.transform(0));
  CompiledTransform::CompileOptions no_lut_options;
  no_lut_options.enable_lut = false;
  const CompiledTransform no_lut =
      CompiledTransform::Compile(plan.transform(0), no_lut_options);
  ASSERT_TRUE(lut.has_lut());
  for (int v = -1; v <= 139; ++v) {
    const bool fitted = (v >= 0 && v <= 38 && v % 2 == 0) ||
                        (v > 38 && v < 100) ||
                        (v >= 100 && v <= 138 && v % 2 == 0);
    EXPECT_EQ(lut.Covers(v), fitted) << v;
    EXPECT_EQ(no_lut.Covers(v), fitted) << v;
  }
  EXPECT_FALSE(lut.Covers(16.5));
  EXPECT_TRUE(lut.Covers(50.5));

  for (const OodPolicy policy : {OodPolicy::kReject, OodPolicy::kExtendPiece}) {
    StreamOptions options;
    options.chunk_rows = 16;
    options.ood_policy = policy;
    DatasetChunkReader reader(&data);
    DatasetChunkWriter writer;
    auto released =
        StreamingCustodian::ReleaseWithPlan(reader, writer, plan, options);
    ASSERT_FALSE(released.ok()) << stream::ToString(policy);
    EXPECT_EQ(released.status().code(), StatusCode::kOutOfRange);
    const std::string message = released.status().ToString();
    EXPECT_NE(message.find("stream row 41: attribute 'x' = 17"),
              std::string::npos)
        << message;
    EXPECT_NE(message.find("permutation piece [0, 38]"), std::string::npos)
        << message;
  }
  // clamp keeps the snap and counts it.
  StreamOptions options;
  options.ood_policy = OodPolicy::kClamp;
  DatasetChunkReader reader(&data);
  DatasetChunkWriter writer;
  StreamStats stats;
  auto released = StreamingCustodian::ReleaseWithPlan(reader, writer, plan,
                                                      options, &stats);
  ASSERT_TRUE(released.ok()) << released.status().ToString();
  EXPECT_EQ(stats.ood_total, 1u);
  EXPECT_EQ(stats.ood_by_attribute[0], 1u);
  EXPECT_EQ(writer.collected().Value(40, 0), plan.transform(0).Apply(17));
}

TEST(OodPolicyTest, ParseAndToStringRoundTrip) {
  for (const OodPolicy policy :
       {OodPolicy::kReject, OodPolicy::kClamp, OodPolicy::kExtendPiece}) {
    auto parsed = stream::ParseOodPolicy(stream::ToString(policy));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), policy);
  }
  EXPECT_FALSE(stream::ParseOodPolicy("ignore").ok());
  EXPECT_FALSE(stream::ParseOodPolicy("refit").ok());
}

// ------------------------------------------------------ loaded-plan mode --

TEST(StreamReleaseTest, ReleaseWithLoadedPlanMatchesBatchEncode) {
  const Dataset data = CovtypeLikeData(250, /*seed=*/19);
  const Batch batch = BatchRelease(data, /*seed=*/29);
  // Round-trip the key through its serialized form, as the CLI's --key-in
  // path does.
  auto reloaded = ParsePlan(SerializePlan(batch.plan));
  ASSERT_TRUE(reloaded.ok());
  StreamOptions options;
  options.chunk_rows = 31;
  DatasetChunkReader reader(&data);
  DatasetChunkWriter writer;
  auto plan = StreamingCustodian::ReleaseWithPlan(
      reader, writer, std::move(reloaded).value(), options);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(ToCsvString(writer.collected()), ToCsvString(batch.released));
}

// ------------------------------------------------------ crash + resume --

/// One streamed release into the journaled sink at `path`.
Status ResumableRelease(const Dataset& data, const StreamOptions& options,
                        const std::string& path, bool resume,
                        StreamStats* stats = nullptr) {
  DatasetChunkReader reader(&data);
  ResumableCsvChunkWriter writer(path, {}, resume);
  auto plan = StreamingCustodian::Release(reader, writer, options, stats);
  return plan.ok() ? Status::Ok() : plan.status();
}

std::string SlurpFile(const std::string& path) {
  auto bytes = fault::ReadFileToString(path);
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return bytes.ok() ? bytes.value() : std::string();
}

/// The resume bit-identity sweep: kill the release at evenly spaced I/O
/// operations (with a torn half-written buffer at the kill point), across
/// several chunk sizes, and require every `--resume` continuation to
/// finish with bytes identical to the uninterrupted run.
TEST(StreamResumeTest, ResumeIsByteIdenticalAcrossChunkSizesAndKillPoints) {
  const Dataset data = CovtypeLikeData(300, /*seed=*/13);
  for (const size_t chunk_rows : {17u, 97u, 300u}) {
    StreamOptions options;
    options.chunk_rows = chunk_rows;
    options.seed = 41;
    options.exec = ExecPolicy{3};
    const std::string path =
        TempPath("resume_" + std::to_string(chunk_rows) + ".csv");
    ASSERT_TRUE(ResumableRelease(data, options, path, false).ok());
    const std::string golden = SlurpFile(path);
    ASSERT_FALSE(golden.empty());

    // Size the schedule space from an op-count probe of a full run.
    size_t total_ops = 0;
    {
      fault::ScopedFaultInjection probe(fault::FaultSchedule::CountOnly());
      ASSERT_TRUE(ResumableRelease(data, options,
                                   path + ".count", false)
                      .ok());
      total_ops = probe.ops_seen();
    }
    ASSERT_GT(total_ops, 0u);

    const size_t kill_points[] = {0, total_ops / 4, total_ops / 2,
                                  (3 * total_ops) / 4, total_ops - 1};
    for (const size_t kill : kill_points) {
      SCOPED_TRACE("chunk_rows=" + std::to_string(chunk_rows) +
                   " kill_op=" + std::to_string(kill));
      std::remove(path.c_str());
      {
        fault::ScopedFaultInjection inject(
            fault::FaultSchedule::CrashAt(kill, /*write_fraction=*/0.5));
        const Status died = ResumableRelease(data, options, path, false);
        ASSERT_TRUE(inject.fired());
        ASSERT_FALSE(died.ok());
      }
      // The final name never holds a partial artifact.
      if (fault::FileExists(path)) {
        EXPECT_EQ(SlurpFile(path), golden);
      }
      StreamStats stats;
      ASSERT_TRUE(ResumableRelease(data, options, path, true, &stats).ok());
      EXPECT_EQ(SlurpFile(path), golden);
      EXPECT_FALSE(fault::FileExists(path + ".partial"));
      EXPECT_FALSE(fault::FileExists(path + ".manifest"));
    }
  }
}

/// A kill late in the encode pass leaves durable chunks behind, and the
/// resumed run must actually reuse them rather than silently re-encode.
TEST(StreamResumeTest, LateKillReusesCompletedChunks) {
  const Dataset data = CovtypeLikeData(300, /*seed=*/13);
  StreamOptions options;
  options.chunk_rows = 50;
  options.seed = 41;
  const std::string path = TempPath("resume_late.csv");
  std::remove(path.c_str());
  size_t total_ops = 0;
  {
    fault::ScopedFaultInjection probe(fault::FaultSchedule::CountOnly());
    ASSERT_TRUE(ResumableRelease(data, options, path, false).ok());
    total_ops = probe.ops_seen();
  }
  const std::string golden = SlurpFile(path);
  std::remove(path.c_str());
  {
    // Kill right before the close/rename tail: every chunk except the
    // in-flight one is already journaled.
    fault::ScopedFaultInjection inject(
        fault::FaultSchedule::CrashAt(total_ops - 4));
    ASSERT_FALSE(ResumableRelease(data, options, path, false).ok());
  }
  StreamStats stats;
  ASSERT_TRUE(ResumableRelease(data, options, path, true, &stats).ok());
  EXPECT_EQ(SlurpFile(path), golden);
  EXPECT_GT(stats.resumed_chunks, 0u);
  EXPECT_NE(stats.Render().find("resumed"), std::string::npos);
}

/// `--resume` against a journal from a different configuration (different
/// seed → different plan fingerprint) must fall back to a fresh run and
/// still produce the right bytes for the *new* configuration.
TEST(StreamResumeTest, FingerprintMismatchFallsBackToFreshRun) {
  const Dataset data = CovtypeLikeData(200, /*seed=*/9);
  StreamOptions options;
  options.chunk_rows = 37;
  options.seed = 7;
  const std::string path = TempPath("resume_mismatch.csv");
  std::remove(path.c_str());
  ASSERT_TRUE(ResumableRelease(data, options, path, false).ok());
  const std::string golden_seed7 = SlurpFile(path);
  // Interrupt a run with seed 7, then resume with seed 8.
  {
    fault::ScopedFaultInjection inject(fault::FaultSchedule::CrashAt(12));
    ASSERT_FALSE(ResumableRelease(data, options, path, false).ok());
  }
  StreamOptions other = options;
  other.seed = 8;
  StreamStats stats;
  ASSERT_TRUE(ResumableRelease(data, other, path, true, &stats).ok());
  EXPECT_EQ(stats.resumed_chunks, 0u);
  EXPECT_NE(SlurpFile(path), golden_seed7);
  // And resuming the seed-7 journal-less state with seed 7 reproduces the
  // seed-7 bytes.
  ASSERT_TRUE(ResumableRelease(data, options, path, true).ok());
  EXPECT_EQ(SlurpFile(path), golden_seed7);
}

TEST(StreamReleaseTest, EmptyStreamFailsCleanly) {
  Dataset empty({"x"}, {"a", "b"});
  DatasetChunkReader reader(&empty);
  DatasetChunkWriter writer;
  auto plan = StreamingCustodian::Release(reader, writer, StreamOptions{});
  ASSERT_FALSE(plan.ok());
  EXPECT_NE(plan.status().ToString().find("no data rows"), std::string::npos);
}

}  // namespace
}  // namespace popp
