#include <gtest/gtest.h>

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
#include "transform/compiled.h"
#include "transform/plan.h"
#include "transform/serialize.h"
#include "tree/builder.h"
#include "tree/compare.h"
#include "util/rng.h"

namespace popp {
namespace {

using stream::CsvChunkReader;
using stream::CsvChunkWriter;
using stream::DatasetChunkReader;
using stream::DatasetChunkWriter;
using stream::IncrementalSummary;
using stream::OodPolicy;
using stream::StreamingCustodian;
using stream::StreamOptions;
using stream::StreamStats;

Dataset CovtypeLikeData(size_t rows = 800, uint64_t seed = 31) {
  Rng rng(seed);
  return GenerateCovtypeLike(SmallCovtypeSpec(rows), rng);
}

std::string WriteTempCsv(const Dataset& d, const std::string& name) {
  const std::string path = testing::TempDir() + "/" + name;
  EXPECT_TRUE(WriteCsv(d, path).ok());
  return path;
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

TEST(IncrementalSummaryTest, AbsorbEqualsBatchSummary) {
  const Dataset data = CovtypeLikeData(500);
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
    ASSERT_EQ(streamed.NumDistinct(), batch.NumDistinct()) << "attr " << attr;
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
  const std::string path = testing::TempDir() + "/stream_writer.csv";
  CsvChunkWriter writer(path);
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
  const std::string path = testing::TempDir() + "/stream_empty.csv";
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
      EXPECT_EQ(stats.refits, 0u);
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
  const std::string out_path = testing::TempDir() + "/stream_out.csv";
  CsvChunkWriter writer(out_path);
  auto plan = StreamingCustodian::Release(reader, writer, options);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  std::ifstream in(out_path, std::ios::binary);
  std::string released((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(released, ToCsvString(batch.released));
  EXPECT_EQ(SerializePlan(plan.value()), SerializePlan(batch.plan));
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

/// A stream whose tail exceeds the prefix hull on attribute 0.
Dataset PrefixPlusOutliers() {
  Dataset d({"x", "y"}, {"a", "b"});
  for (int i = 0; i < 60; ++i) {
    d.AddRow({static_cast<AttrValue>(10 + i % 20),
              static_cast<AttrValue>(5 + (i * 7) % 11)},
             i % 2);
  }
  // Tail rows outside [10, 29] on x (both sides).
  d.AddRow({120, 7}, 0);
  d.AddRow({-40, 8}, 1);
  d.AddRow({121, 9}, 0);
  return d;
}

StreamOptions PrefixFitOptions(OodPolicy policy) {
  StreamOptions options;
  options.chunk_rows = 10;
  options.fit_rows = 60;
  options.ood_policy = policy;
  options.seed = 5;
  return options;
}

TEST(OodPolicyTest, RejectFailsWithActionableError) {
  const Dataset data = PrefixPlusOutliers();
  DatasetChunkReader reader(&data);
  DatasetChunkWriter writer;
  auto plan = StreamingCustodian::Release(
      reader, writer, PrefixFitOptions(OodPolicy::kReject));
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
  DatasetChunkReader reader(&data);
  DatasetChunkWriter writer;
  StreamStats stats;
  auto plan = StreamingCustodian::Release(
      reader, writer, PrefixFitOptions(OodPolicy::kClamp), &stats);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(stats.ood_total, 3u);
  EXPECT_EQ(stats.ood_by_attribute[0], 3u);
  EXPECT_EQ(stats.refits, 0u);
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
  DatasetChunkReader reader(&data);
  DatasetChunkWriter writer;
  StreamStats stats;
  auto plan = StreamingCustodian::Release(
      reader, writer, PrefixFitOptions(OodPolicy::kExtendPiece), &stats);
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

TEST(OodPolicyTest, RefitAbsorbsOutliersDeterministically) {
  const Dataset data = PrefixPlusOutliers();
  DatasetChunkReader reader(&data);
  DatasetChunkWriter writer;
  StreamStats stats;
  auto plan = StreamingCustodian::Release(
      reader, writer, PrefixFitOptions(OodPolicy::kRefit), &stats);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_GE(stats.refits, 1u);
  EXPECT_EQ(stats.ood_total, 3u);
  // The final plan's hull covers the whole stream.
  const auto hull = DomainBounds::Of(plan.value().transform(0));
  EXPECT_EQ(hull.lo, -40);
  EXPECT_EQ(hull.hi, 121);
  // Determinism: the same stream yields byte-identical output and plan.
  DatasetChunkReader reader2(&data);
  DatasetChunkWriter writer2;
  auto plan2 = StreamingCustodian::Release(
      reader2, writer2, PrefixFitOptions(OodPolicy::kRefit));
  ASSERT_TRUE(plan2.ok());
  EXPECT_EQ(SerializePlan(plan.value()), SerializePlan(plan2.value()));
  EXPECT_EQ(ToCsvString(writer.collected()), ToCsvString(writer2.collected()));
}

TEST(OodPolicyTest, ParseAndToStringRoundTrip) {
  for (const OodPolicy policy :
       {OodPolicy::kReject, OodPolicy::kClamp, OodPolicy::kExtendPiece,
        OodPolicy::kRefit}) {
    auto parsed = stream::ParseOodPolicy(stream::ToString(policy));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), policy);
  }
  EXPECT_FALSE(stream::ParseOodPolicy("ignore").ok());
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

using stream::ResumableCsvChunkWriter;

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
    const std::string path = testing::TempDir() + "/resume_" +
                             std::to_string(chunk_rows) + ".csv";
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
  const std::string path = testing::TempDir() + "/resume_late.csv";
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
  const std::string path = testing::TempDir() + "/resume_mismatch.csv";
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
