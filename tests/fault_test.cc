#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <string>

#include "check/oracles.h"
#include "data/cols.h"
#include "data/dataset.h"
#include "fault/failpoint.h"
#include "fault/file.h"
#include "stream/chunk_io.h"
#include "stream/manifest.h"
#include "temp_path.h"
#include "util/crc64.h"
#include "util/rng.h"
#include "util/status.h"

/// \file
/// The fault-injection framework and the hardened I/O layer it exercises:
/// failpoint determinism, atomic publication, torn writes, simulated-kill
/// debris, journal recovery — and the `fault_crash_safety` oracle swept
/// over hundreds of randomized schedules (the PR's acceptance bar).

namespace popp {
namespace {

using fault::AtomicFileWriter;
using fault::FaultSchedule;
using fault::InputFile;
using fault::Op;
using fault::OutputFile;
using fault::ScopedFaultInjection;

std::string Slurp(const std::string& path) {
  auto bytes = fault::ReadFileToString(path);
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return bytes.ok() ? bytes.value() : std::string();
}

// ----------------------------------------------------------- failpoint --

TEST(FailPointTest, DisabledInjectionIsInvisible) {
  EXPECT_FALSE(fault::Enabled());
  EXPECT_FALSE(fault::CrashActive());
  const std::string path = TempPath("fp_plain.txt");
  ASSERT_TRUE(fault::WriteFileAtomic(path, "hello\n").ok());
  EXPECT_EQ(Slurp(path), "hello\n");
}

TEST(FailPointTest, CountOnlyCountsWithoutFiring) {
  const std::string path = TempPath("fp_count.txt");
  size_t first = 0;
  {
    ScopedFaultInjection probe(FaultSchedule::CountOnly());
    ASSERT_TRUE(fault::WriteFileAtomic(path, "abc\n").ok());
    first = probe.ops_seen();
    EXPECT_FALSE(probe.fired());
  }
  ASSERT_GT(first, 0u);
  // Determinism: the identical operation sequence counts identically.
  {
    ScopedFaultInjection probe(FaultSchedule::CountOnly());
    ASSERT_TRUE(fault::WriteFileAtomic(path, "abc\n").ok());
    EXPECT_EQ(probe.ops_seen(), first);
  }
}

TEST(FailPointTest, ErrorAtFiresAtExactlyThatOperation) {
  const std::string path = TempPath("fp_error.txt");
  size_t total = 0;
  {
    ScopedFaultInjection probe(FaultSchedule::CountOnly());
    ASSERT_TRUE(fault::WriteFileAtomic(path, "abc\n").ok());
    total = probe.ops_seen();
  }
  for (size_t k = 0; k < total; ++k) {
    ScopedFaultInjection inject(FaultSchedule::ErrorAt(k));
    const Status s = fault::WriteFileAtomic(path, "abc\n");
    EXPECT_FALSE(s.ok()) << "op " << k << " did not propagate";
    EXPECT_TRUE(inject.fired()) << "op " << k;
    EXPECT_FALSE(inject.crash_triggered());
    EXPECT_NE(s.message().find("injected"), std::string::npos)
        << s.ToString();
  }
  // The schedule beyond the last op never fires; the write succeeds.
  {
    ScopedFaultInjection inject(FaultSchedule::ErrorAt(total));
    EXPECT_TRUE(fault::WriteFileAtomic(path, "abc\n").ok());
    EXPECT_FALSE(inject.fired());
  }
}

TEST(FailPointTest, CrashMakesEveryLaterOperationFail) {
  const std::string a = TempPath("fp_crash_a.txt");
  const std::string b = TempPath("fp_crash_b.txt");
  ScopedFaultInjection inject(FaultSchedule::CrashAt(0));
  EXPECT_FALSE(fault::WriteFileAtomic(a, "x\n").ok());
  EXPECT_TRUE(inject.crash_triggered());
  EXPECT_TRUE(fault::CrashActive());
  // A "dead process" cannot do unrelated I/O either.
  const Status later = fault::WriteFileAtomic(b, "y\n");
  EXPECT_FALSE(later.ok());
  EXPECT_NE(later.message().find("crash"), std::string::npos)
      << later.ToString();
}

// ----------------------------------------- delay (hang) injection mode --

TEST(FailPointDelayTest, DelayStallsTheHitOperationThenProceeds) {
  const std::string path = TempPath("fp_delay.txt");
  size_t total = 0;
  {
    ScopedFaultInjection probe(FaultSchedule::CountOnly());
    ASSERT_TRUE(fault::WriteFileAtomic(path, "abc\n").ok());
    total = probe.ops_seen();
  }
  for (size_t k = 0; k < total; ++k) {
    ScopedFaultInjection inject(FaultSchedule::DelayAt(k, 80));
    const auto start = std::chrono::steady_clock::now();
    const Status s = fault::WriteFileAtomic(path, "abc\n");
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start);
    // Nothing fails — the injected symptom is pure latency.
    EXPECT_TRUE(s.ok()) << "op " << k << ": " << s.ToString();
    EXPECT_TRUE(inject.fired()) << "op " << k;
    EXPECT_FALSE(inject.crash_triggered());
    EXPECT_GE(elapsed.count(), 75) << "op " << k << " did not stall";
  }
  EXPECT_EQ(Slurp(path), "abc\n");
}

TEST(FailPointDelayTest, DelayBeyondTheOpRangeNeverStalls) {
  const std::string path = TempPath("fp_delay_miss.txt");
  size_t total = 0;
  {
    ScopedFaultInjection probe(FaultSchedule::CountOnly());
    ASSERT_TRUE(fault::WriteFileAtomic(path, "x\n").ok());
    total = probe.ops_seen();
  }
  ScopedFaultInjection inject(FaultSchedule::DelayAt(total, 30000));
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(fault::WriteFileAtomic(path, "x\n").ok());
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_FALSE(inject.fired());
  EXPECT_LT(elapsed.count(), 5000);
}

TEST(FailPointDelayTest, OneShotTokenIsConsumedExactlyOnce) {
  const std::string path = TempPath("fp_token_target.txt");
  const std::string token = TempPath("fp_token");
  ASSERT_TRUE(fault::WriteFileAtomic(token, "armed").ok());
  {
    // Token present: the fault fires and eats the token.
    FaultSchedule schedule = FaultSchedule::ErrorAt(0);
    schedule.one_shot_token = token;
    ScopedFaultInjection inject(schedule);
    EXPECT_FALSE(fault::WriteFileAtomic(path, "a\n").ok());
    EXPECT_TRUE(inject.fired());
  }
  EXPECT_FALSE(fault::FileExists(token));
  {
    // Token gone: the same schedule is inert — this is what keeps a
    // restarted shard worker from re-firing an already-consumed fault.
    FaultSchedule schedule = FaultSchedule::ErrorAt(0);
    schedule.one_shot_token = token;
    ScopedFaultInjection inject(schedule);
    EXPECT_TRUE(fault::WriteFileAtomic(path, "a\n").ok());
    EXPECT_FALSE(inject.fired());
  }
  EXPECT_EQ(Slurp(path), "a\n");
}

TEST(FailPointDelayTest, ChildOnlyScheduleSkipsTheInstallerProcess) {
  // In the installing process a child_only schedule must neither stall
  // nor fail anything — it exists to hang forked workers, and this test
  // runs no fork.
  const std::string path = TempPath("fp_child_only.txt");
  FaultSchedule schedule = FaultSchedule::DelayAt(0, 30000);
  schedule.child_only = true;
  ScopedFaultInjection inject(schedule);
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(fault::WriteFileAtomic(path, "c\n").ok());
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_FALSE(inject.fired());
  EXPECT_LT(elapsed.count(), 5000);
  EXPECT_EQ(Slurp(path), "c\n");
}

// ----------------------------------------------------------- file layer --

TEST(FaultFileTest, MissingFileIsNotFoundWithPath) {
  const std::string path = TempPath("does_not_exist_anywhere.bin");
  auto bytes = fault::ReadFileToString(path);
  ASSERT_FALSE(bytes.ok());
  EXPECT_EQ(bytes.status().code(), StatusCode::kNotFound);
  EXPECT_NE(bytes.status().message().find(path), std::string::npos)
      << bytes.status().ToString();
}

TEST(FaultFileTest, WriteReadRoundTripIncludingBinaryBytes) {
  const std::string path = TempPath("fault_roundtrip.bin");
  std::string payload = "line\n";
  payload.push_back('\0');
  payload += "\xff\x7f tail";
  ASSERT_TRUE(fault::WriteFileAtomic(path, payload).ok());
  EXPECT_EQ(Slurp(path), payload);
  EXPECT_FALSE(fault::FileExists(path + ".tmp"));
}

TEST(FaultFileTest, FailedRewriteLeavesPreviousArtifactIntact) {
  const std::string path = TempPath("fault_keep_old.txt");
  ASSERT_TRUE(fault::WriteFileAtomic(path, "old bytes\n").ok());
  size_t total = 0;
  {
    ScopedFaultInjection probe(FaultSchedule::CountOnly());
    ASSERT_TRUE(fault::WriteFileAtomic(path + ".probe", "new bytes\n").ok());
    total = probe.ops_seen();
  }
  for (size_t k = 0; k < total; ++k) {
    ScopedFaultInjection inject(FaultSchedule::ErrorAt(k));
    ASSERT_FALSE(fault::WriteFileAtomic(path, "new bytes\n").ok());
  }
  // Every failure point left the old artifact untouched and no temp file.
  EXPECT_EQ(Slurp(path), "old bytes\n");
  EXPECT_FALSE(fault::FileExists(path + ".tmp"));
}

TEST(FaultFileTest, TornWritePersistsExactlyThePrefix) {
  const std::string path = TempPath("fault_torn.txt");
  std::remove(path.c_str());
  OutputFile out;
  ASSERT_TRUE(out.Open(path, /*append=*/false).ok());
  const std::string payload = "0123456789";
  {
    // Ops count from scope installation, so the write below is op 0.
    ScopedFaultInjection inject(FaultSchedule::ErrorAt(0, /*fraction=*/0.5));
    const Status s = out.Write(payload);
    ASSERT_FALSE(s.ok());
    ASSERT_TRUE(inject.fired());
  }
  out.CloseQuietly();
  EXPECT_EQ(Slurp(path), "01234");
}

TEST(FaultFileTest, AbandonedAtomicWriterNeverTouchesFinalPath) {
  const std::string path = TempPath("fault_abandon.txt");
  std::remove(path.c_str());
  {
    AtomicFileWriter writer(path);
    ASSERT_TRUE(writer.Open().ok());
    ASSERT_TRUE(writer.Append("half-finished").ok());
    EXPECT_TRUE(fault::FileExists(writer.temp_path()));
    // No Commit: destruction abandons.
  }
  EXPECT_FALSE(fault::FileExists(path));
  EXPECT_FALSE(fault::FileExists(path + ".tmp"));
}

TEST(FaultFileTest, CrashLeavesTempDebrisButNoFinalFile) {
  const std::string path = TempPath("fault_crash_debris.txt");
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  {
    // The injection scope outlives the writer (as it does around a whole
    // faulted release), so the writer destructs while the crash is active
    // and its cleanup is suppressed, exactly like a kill -9.
    ScopedFaultInjection inject(FaultSchedule::CrashAt(2));
    AtomicFileWriter writer(path);
    ASSERT_TRUE(writer.Open().ok());                  // op 0
    ASSERT_TRUE(writer.Append("doomed bytes").ok());  // op 1
    ASSERT_FALSE(writer.Commit().ok());               // op 2: crash
    EXPECT_TRUE(inject.crash_triggered());
  }
  EXPECT_FALSE(fault::FileExists(path));
  EXPECT_TRUE(fault::FileExists(path + ".tmp"));
  std::remove((path + ".tmp").c_str());
}

TEST(FaultFileTest, InputFileShortReadsNeverForgeEof) {
  const std::string path = TempPath("fault_short_read.txt");
  ASSERT_TRUE(fault::WriteFileAtomic(path, "abcdefgh").ok());
  InputFile in;
  ASSERT_TRUE(in.Open(path).ok());
  std::string got;
  char buffer[3];
  for (;;) {
    auto n = in.Read(buffer, sizeof(buffer));
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    if (n.value() == 0) break;
    got.append(buffer, n.value());
  }
  EXPECT_EQ(got, "abcdefgh");
}

// ------------------------------------------------------------- manifest --

TEST(ManifestTest, LoadParsesChunksAndCompleteMarker) {
  const std::string path = TempPath("manifest_ok.manifest");
  const std::string text =
      "popp-manifest v1\n"
      "fingerprint chunk_rows=10 seed=1\n"
      "chunk 0 10 120 " + Crc64Hex(Crc64("a")) + "\n" +
      "chunk 1 7 90 " + Crc64Hex(Crc64("b")) + "\n" +
      "complete 2 17 210\n";
  ASSERT_TRUE(fault::WriteFileAtomic(path, text).ok());
  auto manifest = stream::LoadManifest(path);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  EXPECT_EQ(manifest.value().fingerprint, "chunk_rows=10 seed=1");
  ASSERT_EQ(manifest.value().chunks.size(), 2u);
  EXPECT_EQ(manifest.value().chunks[1].rows, 7u);
  EXPECT_EQ(manifest.value().chunks[1].bytes, 90u);
  EXPECT_TRUE(manifest.value().complete);
}

TEST(ManifestTest, TornTailLineIsDroppedLeniently) {
  const std::string path = TempPath("manifest_torn.manifest");
  const std::string text =
      "popp-manifest v1\n"
      "fingerprint fp\n"
      "chunk 0 10 120 " + Crc64Hex(Crc64("a")) + "\n" +
      "chunk 1 7 90 00ab";  // the crash tore this journal append
  ASSERT_TRUE(fault::WriteFileAtomic(path, text).ok());
  auto manifest = stream::LoadManifest(path);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  ASSERT_EQ(manifest.value().chunks.size(), 1u);
  EXPECT_FALSE(manifest.value().complete);
}

TEST(ManifestTest, TruncatedHeaderIsDataLoss) {
  const std::string path = TempPath("manifest_bad.manifest");
  ASSERT_TRUE(fault::WriteFileAtomic(path, "popp-manifest v1\nfinge").ok());
  auto manifest = stream::LoadManifest(path);
  ASSERT_FALSE(manifest.ok());
  EXPECT_EQ(manifest.status().code(), StatusCode::kDataLoss);
}

TEST(ManifestTest, ResumeMismatchIsActionableDataLoss) {
  const std::string path = TempPath("resume_mismatch_unit.csv");
  Dataset chunk({"x"}, {"a"});
  chunk.AddRow({1.0}, 0);
  // An interrupted run: one journaled chunk, no Close.
  std::remove(path.c_str());
  {
    stream::ResumableCsvChunkWriter writer(path, {}, /*resume=*/false);
    ASSERT_TRUE(writer.BeginStream("fp").ok());
    ASSERT_TRUE(writer.Append(chunk).ok());
  }
  // Resume claims the stream now produces a different row count for the
  // journaled chunk: the input changed, and the writer must say so.
  stream::ResumableCsvChunkWriter writer(path, {}, /*resume=*/true);
  ASSERT_TRUE(writer.BeginStream("fp").ok());
  ASSERT_EQ(writer.CompletedChunks(), 1u);
  const Status s = writer.NoteSkipped(0, /*rows=*/2);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  EXPECT_NE(s.message().find("re-run without --resume"), std::string::npos)
      << s.ToString();
}

// ------------------------------------------------- the oracle, at scale --

Dataset SmallMixedData(uint64_t seed, size_t rows) {
  Rng rng(seed);
  Dataset d({"x", "y"}, {"a", "b", "c"});
  for (size_t i = 0; i < rows; ++i) {
    d.AddRow({static_cast<AttrValue>(rng.UniformInt(-40, 40)),
              rng.Uniform(0.0, 9.0)},
             static_cast<ClassId>(rng.UniformInt(0, 2)));
  }
  return d;
}

/// The acceptance bar: >= 200 randomized fault schedules, spread over
/// several datasets and chunk sizes, with zero tolerated failures. Each
/// schedule is one injected error/torn-write/kill plus one resumed run
/// compared by hash against the uninterrupted release.
TEST(FaultCrashSafetyTest, OracleGreenOverTwoHundredRandomSchedules) {
  struct Sweep {
    uint64_t seed;
    size_t rows;
    size_t chunk_rows;
    size_t schedules;
  };
  const Sweep sweeps[] = {
      {101, 90, 13, 70},
      {202, 60, 60, 70},
      {303, 120, 1, 35},
      {404, 75, 200, 35},  // one chunk holds the whole stream
  };
  size_t total = 0;
  for (const Sweep& sweep : sweeps) {
    const Dataset data = SmallMixedData(sweep.seed, sweep.rows);
    const check::OracleResult result = check::CheckFaultCrashSafety(
        data, sweep.seed, PiecewiseOptions{}, sweep.chunk_rows,
        sweep.schedules);
    EXPECT_TRUE(result.passed)
        << "seed " << sweep.seed << ": " << result.message;
    total += sweep.schedules;
  }
  EXPECT_GE(total, 200u);
}

// ------------------------------------------------- popp-cols integrity --

Dataset SmallColsData() {
  Dataset d({"x", "y"}, {"a", "b"});
  for (int i = 0; i < 12; ++i) {
    d.AddRow({static_cast<double>(i % 4), i * 0.5},
             static_cast<ClassId>(i % 2));
  }
  return d;
}

/// The committed popp-cols corruption corpus: each file is the golden
/// container with one specific kind of damage, and the loader must refuse
/// it with kDataLoss and a diagnostic naming the damage.
TEST(ColsFaultTest, CorruptCorpusIsRejectedWithDataLoss) {
  struct CorruptCase {
    const char* file;
    const char* expect;  ///< required diagnostic substring
  };
  const CorruptCase cases[] = {
      // Cut mid-extent: the header's file_bytes can no longer be honest.
      {"cols_truncated.cols", "truncated container"},
      // Not a popp-cols container at all.
      {"cols_garbage_magic.cols", "expected 'poppcols' magic"},
      // One flipped bit in an extent footer: footer and directory disagree.
      {"cols_bitflip_footer.cols", "footer disagrees with the directory"},
      // Directory entry claims a payload overrunning the directory.
      {"cols_truncated_extent.cols", "payload extends past the directory"},
      // dict_size inflated with every checksum re-fixed: only the
      // structural dictionary bound can catch it.
      {"cols_torn_dict.cols", "dictionary extends past its extent"},
  };
  for (const auto& c : cases) {
    auto bytes = fault::ReadFileToString(std::string(POPP_TEST_DATA_DIR) +
                                         "/corrupt/" + c.file);
    ASSERT_TRUE(bytes.ok()) << c.file << ": " << bytes.status().ToString();
    auto parsed = ParseCols(bytes.value());
    ASSERT_FALSE(parsed.ok()) << c.file << " parsed despite the corruption";
    EXPECT_EQ(parsed.status().code(), StatusCode::kDataLoss) << c.file;
    EXPECT_NE(parsed.status().message().find(c.expect), std::string::npos)
        << c.file << " diagnostic: " << parsed.status().message();
  }
}

TEST(ColsFaultTest, WriteColsIsAtomicUnderEveryInjectedError) {
  const std::string path = TempPath("cols_fault_atomic.cols");
  const Dataset d = SmallColsData();
  ASSERT_TRUE(WriteCols(d, path).ok());
  const std::string good = Slurp(path);
  size_t total = 0;
  {
    ScopedFaultInjection probe(FaultSchedule::CountOnly());
    ASSERT_TRUE(WriteCols(d, path + ".probe").ok());
    total = probe.ops_seen();
  }
  ASSERT_GT(total, 0u);
  for (size_t k = 0; k < total; ++k) {
    ScopedFaultInjection inject(FaultSchedule::ErrorAt(k));
    ASSERT_FALSE(WriteCols(d, path).ok()) << "op " << k;
    EXPECT_TRUE(inject.fired());
  }
  // Every failure point left the previous container intact (and loadable)
  // and no temp debris.
  EXPECT_EQ(Slurp(path), good);
  EXPECT_FALSE(fault::FileExists(path + ".tmp"));
  auto reloaded = ReadCols(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_TRUE(reloaded.value() == d);
  std::remove(path.c_str());
  std::remove((path + ".probe").c_str());
}

TEST(ColsFaultTest, ReadColsSurfacesInjectedOpenErrors) {
  const std::string path = TempPath("cols_fault_read.cols");
  ASSERT_TRUE(WriteCols(SmallColsData(), path).ok());
  {
    ScopedFaultInjection inject(FaultSchedule::ErrorAt(0));
    auto loaded = ReadCols(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_TRUE(inject.fired());
    EXPECT_NE(loaded.status().message().find("injected"), std::string::npos)
        << loaded.status().ToString();
  }
  {
    ScopedFaultInjection inject(FaultSchedule::CrashAt(0));
    auto loaded = ReadCols(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_TRUE(inject.crash_triggered());
  }
  auto loaded = ReadCols(path);
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace popp
