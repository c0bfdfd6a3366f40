#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include "core/cli.h"
#include "data/csv.h"
#include "fault/failpoint.h"
#include "fault/file.h"
#include "serve/server.h"
#include "shard/meta_manifest.h"
#include "synth/covtype_like.h"
#include "synth/presets.h"
#include "tree/compare.h"
#include "tree/serialize.h"
#include "util/integrity.h"
#include "util/rng.h"

namespace popp {
namespace {

/// Runs the CLI and captures its streams.
struct CliResult {
  int code;
  std::string out;
  std::string err;
};

CliResult RunPopp(const std::vector<std::string>& args) {
  std::ostringstream out, err;
  const int code = RunCli(args, out, err);
  return {code, out.str(), err.str()};
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/popp_cli_" + name;
}

class CliTest : public testing::Test {
 protected:
  void SetUp() override {
    Rng rng(5);
    data_ = GenerateCovtypeLike(SmallCovtypeSpec(600), rng);
    csv_path_ = TempPath("data.csv");
    ASSERT_TRUE(WriteCsv(data_, csv_path_).ok());
  }

  Dataset data_;
  std::string csv_path_;
};

TEST(CliBasicsTest, NoArgsPrintsUsageAndFails) {
  const CliResult r = RunPopp({});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.out.find("usage:"), std::string::npos);
}

TEST(CliBasicsTest, HelpSucceeds) {
  const CliResult r = RunPopp({"help"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("encode"), std::string::npos);
}

TEST(CliBasicsTest, UnknownCommandFails) {
  const CliResult r = RunPopp({"frobnicate"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(CliBasicsTest, MissingFileReported) {
  const CliResult r = RunPopp({"verify", "/nonexistent/data.csv"});
  EXPECT_EQ(r.code, 3);  // exit taxonomy: 3 = file/I-O error
  EXPECT_NE(r.err.find("NOT_FOUND"), std::string::npos);
  EXPECT_NE(r.err.find("/nonexistent/data.csv"), std::string::npos);
}

TEST(CliBasicsTest, BadFlagValueReported) {
  const CliResult r = RunPopp({"mine", "in.csv", "out.tree", "--criterion",
                           "id3"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown --criterion"), std::string::npos);
}

TEST(CliBasicsTest, UnknownFlagsAreUsageErrors) {
  // Flags are checked before any file is opened: in.csv need not exist.
  for (const std::string flag : {"--no-compiled", "--bogus",
                                 "--ood-polcy=clamp", "--chunk-rows=5"}) {
    const CliResult r =
        RunPopp({"encode", "in.csv", "out.csv", "k.key", flag});
    EXPECT_EQ(r.code, 2) << flag;
    EXPECT_NE(r.err.find("unknown flag " + flag.substr(0, flag.find('='))),
              std::string::npos)
        << r.err;
  }
}

TEST(CliBasicsTest, NumericFlagsMustBeWholeUnsignedDecimals) {
  for (const std::string bad : {"3x", "-1", "", " 3", "+3", "0x10",
                                "18446744073709551616"}) {
    const CliResult r =
        RunPopp({"encode", "in.csv", "out.csv", "k.key", "--seed", bad});
    EXPECT_EQ(r.code, 2) << "'" << bad << "'";
    EXPECT_NE(r.err.find("--seed needs an unsigned decimal integer"),
              std::string::npos)
        << r.err;
  }
  const CliResult chunk = RunPopp({"stream-release", "in.csv", "out.csv",
                                   "k.key", "--chunk-rows", "2abc"});
  EXPECT_EQ(chunk.code, 2);
  EXPECT_NE(chunk.err.find("'2abc'"), std::string::npos) << chunk.err;
  EXPECT_EQ(RunPopp({"mine", "in.csv", "t.tree", "--max-depth=4.5"}).code, 2);
}

TEST(CliBasicsTest, SwitchesTakeNoValueAndValueFlagsNeedOne) {
  const CliResult anti =
      RunPopp({"encode", "in.csv", "out.csv", "k.key", "--anti=1"});
  EXPECT_EQ(anti.code, 2);
  EXPECT_NE(anti.err.find("--anti takes no value"), std::string::npos)
      << anti.err;
  const CliResult seed =
      RunPopp({"encode", "in.csv", "out.csv", "k.key", "--seed"});
  EXPECT_EQ(seed.code, 2);
  EXPECT_NE(seed.err.find("--seed needs a value"), std::string::npos)
      << seed.err;
}

TEST_F(CliTest, SeedSpellingsReleaseTheSameBytes) {
  // --seed=N and --seed N are one flag; the largest u64 seed is accepted.
  const std::string a = TempPath("spell_a.csv");
  const std::string b = TempPath("spell_b.csv");
  ASSERT_EQ(RunPopp({"encode", csv_path_, a, TempPath("spell_a.key"),
                     "--seed", "18446744073709551615"})
                .code,
            0);
  ASSERT_EQ(RunPopp({"encode", csv_path_, b, TempPath("spell_b.key"),
                     "--seed=18446744073709551615"})
                .code,
            0);
  EXPECT_TRUE(ReadCsv(a).value() == ReadCsv(b).value());
}

TEST_F(CliTest, VerifyPasses) {
  const CliResult r = RunPopp({"verify", csv_path_, "--seed", "9"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("VERIFIED"), std::string::npos);
}

TEST_F(CliTest, FullEncodeMineDecodePipeline) {
  const std::string released = TempPath("released.csv");
  const std::string key = TempPath("plan.key");
  const std::string mined = TempPath("mined.tree");
  const std::string decoded = TempPath("decoded.tree");
  const std::string direct = TempPath("direct.tree");

  // Custodian encodes.
  CliResult r = RunPopp({"encode", csv_path_, released, key, "--seed", "3"});
  ASSERT_EQ(r.code, 0) << r.err;

  // Provider mines the released data.
  r = RunPopp({"mine", released, mined});
  ASSERT_EQ(r.code, 0) << r.err;

  // Custodian decodes with her key + original data.
  r = RunPopp({"decode", mined, key, csv_path_, decoded});
  ASSERT_EQ(r.code, 0) << r.err;

  // Reference: mining the original directly.
  r = RunPopp({"mine", csv_path_, direct});
  ASSERT_EQ(r.code, 0) << r.err;

  auto decoded_tree = LoadTree(decoded);
  auto direct_tree = LoadTree(direct);
  ASSERT_TRUE(decoded_tree.ok());
  ASSERT_TRUE(direct_tree.ok());
  EXPECT_TRUE(ExactlyEqual(direct_tree.value(), decoded_tree.value()))
      << DescribeDifference(direct_tree.value(), decoded_tree.value());
}

TEST_F(CliTest, EncodedCsvDiffersEverywhere) {
  const std::string released = TempPath("released2.csv");
  const std::string key = TempPath("plan2.key");
  ASSERT_EQ(RunPopp({"encode", csv_path_, released, key}).code, 0);
  auto reloaded = ReadCsv(released);
  ASSERT_TRUE(reloaded.ok());
  const Dataset& enc = reloaded.value();
  ASSERT_EQ(enc.NumRows(), data_.NumRows());
  size_t same = 0;
  for (size_t rix = 0; rix < data_.NumRows(); ++rix) {
    for (size_t a = 0; a < data_.NumAttributes(); ++a) {
      if (enc.Value(rix, a) == data_.Value(rix, a)) ++same;
    }
  }
  EXPECT_EQ(same, 0u);
}

TEST_F(CliTest, MineSupportsCriteriaAndPruning) {
  const std::string tree_path = TempPath("pruned.tree");
  const CliResult r = RunPopp({"mine", csv_path_, tree_path, "--criterion",
                           "gainratio", "--prune", "--max-depth", "6"});
  ASSERT_EQ(r.code, 0) << r.err;
  auto tree = LoadTree(tree_path);
  ASSERT_TRUE(tree.ok());
  EXPECT_LE(tree.value().Depth(), 6u);
}

TEST_F(CliTest, ReportPrintsAllAttributes) {
  const CliResult r = RunPopp({"report", csv_path_, "--trials", "3"});
  ASSERT_EQ(r.code, 0) << r.err;
  for (size_t a = 0; a < data_.NumAttributes(); ++a) {
    EXPECT_NE(r.out.find(data_.schema().AttributeName(a)),
              std::string::npos);
  }
}

TEST_F(CliTest, HardenPrintsRecommendations) {
  const CliResult r = RunPopp({"harden", csv_path_, "--trials", "3",
                               "--max-risk", "90"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("Hardening recommendations"), std::string::npos);
  for (size_t a = 0; a < data_.NumAttributes(); ++a) {
    EXPECT_NE(r.out.find(data_.schema().AttributeName(a)),
              std::string::npos);
  }
}

TEST_F(CliTest, VerifyWithAntiMonotoneAndEntropy) {
  const CliResult r = RunPopp({"verify", csv_path_, "--seed", "11", "--policy",
                           "bp", "--criterion", "entropy"});
  EXPECT_EQ(r.code, 0) << r.err;
}

TEST_F(CliTest, StreamReleaseMatchesEncodeBytes) {
  const std::string batch_csv = TempPath("batch.csv");
  const std::string batch_key = TempPath("batch.key");
  const std::string stream_csv = TempPath("stream.csv");
  const std::string stream_key = TempPath("stream.key");
  ASSERT_EQ(RunPopp({"encode", csv_path_, batch_csv, batch_key, "--seed",
                     "9"})
                .code,
            0);
  const CliResult r =
      RunPopp({"stream-release", csv_path_, stream_csv, stream_key, "--seed",
               "9", "--chunk-rows", "41", "--threads", "3"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("streamed 600 rows"), std::string::npos) << r.out;
  std::ifstream a(batch_csv, std::ios::binary), b(stream_csv,
                                                  std::ios::binary);
  const std::string batch_bytes((std::istreambuf_iterator<char>(a)),
                                std::istreambuf_iterator<char>());
  const std::string stream_bytes((std::istreambuf_iterator<char>(b)),
                                 std::istreambuf_iterator<char>());
  EXPECT_EQ(batch_bytes, stream_bytes);
  std::ifstream ka(batch_key, std::ios::binary), kb(stream_key,
                                                    std::ios::binary);
  const std::string key_a((std::istreambuf_iterator<char>(ka)),
                          std::istreambuf_iterator<char>());
  const std::string key_b((std::istreambuf_iterator<char>(kb)),
                          std::istreambuf_iterator<char>());
  EXPECT_EQ(key_a, key_b);
}

TEST_F(CliTest, StreamReleaseRejectErrorIsActionable) {
  // A prefix fit on the first 100 rows leaves the tail's unseen values
  // out-of-domain; the default reject policy must name the attribute, the
  // offending value, the fitted domain, and the active policy.
  const CliResult r =
      RunPopp({"stream-release", csv_path_, TempPath("rej.csv"),
               TempPath("rej.key"), "--seed", "9", "--chunk-rows", "50",
               "--fit-rows", "100"});
  ASSERT_EQ(r.code, 1) << r.out;
  EXPECT_NE(r.err.find("out-of-domain value"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("attribute '"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("fitted domain ["), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("ood-policy: reject"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("--ood-policy clamp"), std::string::npos) << r.err;
}

TEST_F(CliTest, StreamReleaseClampToleratesUnseenTail) {
  const CliResult r =
      RunPopp({"stream-release", csv_path_, TempPath("clamp.csv"),
               TempPath("clamp.key"), "--seed", "9", "--chunk-rows", "50",
               "--fit-rows", "100", "--ood-policy", "clamp"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("out-of-domain values:"), std::string::npos);
}

TEST(CliBasicsTest, StreamReleaseBadOodPolicyReported) {
  const CliResult r = RunPopp({"stream-release", "in.csv", "out.csv",
                               "key.out", "--ood-policy", "ignore"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown --ood-policy"), std::string::npos);
}

TEST(CliBasicsTest, StreamReleaseZeroChunkRowsReported) {
  const CliResult r = RunPopp({"stream-release", "in.csv", "out.csv",
                               "key.out", "--chunk-rows", "0"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--chunk-rows"), std::string::npos);
}

// ------------------------------------------------------- shard-release --

std::string ReadAll(const std::string& path) {
  auto bytes = fault::ReadFileToString(path);
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return bytes.ok() ? bytes.value() : std::string();
}

TEST_F(CliTest, ShardReleaseConcatenationMatchesStreamRelease) {
  const std::string stream_csv = TempPath("sr_stream.csv");
  const std::string stream_key = TempPath("sr_stream.key");
  ASSERT_EQ(RunPopp({"stream-release", csv_path_, stream_csv, stream_key,
                     "--seed", "9", "--chunk-rows", "64"})
                .code,
            0);
  const std::string out = TempPath("sr_release");
  const std::string key = TempPath("sr_release.key");
  const CliResult r =
      RunPopp({"shard-release", csv_path_, out, key, "--shards", "3",
               "--seed", "9", "--chunk-rows", "64", "--threads", "2"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("600 rows across 3 shards"), std::string::npos)
      << r.out;
  std::string concatenated;
  for (size_t k = 0; k < 3; ++k) {
    concatenated += ReadAll(shard::ShardFilePath(out, k));
  }
  EXPECT_EQ(concatenated, ReadAll(stream_csv));
  EXPECT_EQ(ReadAll(key), ReadAll(stream_key));
}

TEST_F(CliTest, VerifyManifestCatchesCorruptionNamingTheShard) {
  const std::string out = TempPath("vm_release");
  const std::string key = TempPath("vm_release.key");
  ASSERT_EQ(RunPopp({"shard-release", csv_path_, out, key, "--shards", "3",
                     "--seed", "4"})
                .code,
            0);

  // Clean verification, with and without the key cross-check.
  CliResult r = RunPopp({"verify", out, "--manifest"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("VERIFIED (3 shards, 600 rows"), std::string::npos)
      << r.out;
  r = RunPopp({"verify", out, "--manifest", "--key", key});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("key matches"), std::string::npos) << r.out;

  // Corrupt one shard's bytes: exit 4, diagnostic names the shard.
  const std::string victim = shard::ShardFilePath(out, 1);
  const std::string original = ReadAll(victim);
  std::string tampered = original;
  ASSERT_FALSE(tampered.empty());
  tampered[tampered.size() / 2] ^= 0x08;
  ASSERT_TRUE(fault::WriteFileAtomic(victim, tampered).ok());
  r = RunPopp({"verify", out, "--manifest"});
  EXPECT_EQ(r.code, 4) << r.err;
  EXPECT_NE(r.err.find("shard 1"), std::string::npos) << r.err;
  EXPECT_NE(r.out.find("FAILED"), std::string::npos) << r.out;
  ASSERT_TRUE(fault::WriteFileAtomic(victim, original).ok());

  // Corrupt shard 1's CRC line *inside* the meta-manifest, recomputing the
  // document footer so only the recorded CRC lies: still exit 4, still
  // naming the shard.
  const std::string manifest_text = ReadAll(out);
  bool had_footer = false;
  auto payload = VerifyIntegrityFooter(manifest_text, &had_footer);
  ASSERT_TRUE(payload.ok() && had_footer);
  auto parsed = shard::ParseMetaManifest(manifest_text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  shard::MetaManifest lying = parsed.value();
  lying.shards[1].crc ^= 0x1;
  ASSERT_TRUE(shard::SaveMetaManifest(lying, out).ok());
  r = RunPopp({"verify", out, "--manifest"});
  EXPECT_EQ(r.code, 4) << r.err;
  EXPECT_NE(r.err.find("shard 1"), std::string::npos) << r.err;
  ASSERT_TRUE(fault::WriteFileAtomic(out, manifest_text).ok());

  // A torn meta-manifest itself: the footer catches it, exit 4.
  ASSERT_TRUE(
      fault::WriteFileAtomic(out,
                             manifest_text.substr(0, manifest_text.size() / 2))
          .ok());
  r = RunPopp({"verify", out, "--manifest"});
  EXPECT_EQ(r.code, 4) << r.err;
  ASSERT_TRUE(fault::WriteFileAtomic(out, manifest_text).ok());

  // The wrong key: exit 4 with the wrong-key diagnostic.
  const std::string other_key = TempPath("vm_other.key");
  ASSERT_EQ(RunPopp({"shard-release", csv_path_, TempPath("vm_other"),
                     other_key, "--shards", "2", "--seed", "5"})
                .code,
            0);
  r = RunPopp({"verify", out, "--manifest", "--key", other_key});
  EXPECT_EQ(r.code, 4) << r.err;
  EXPECT_NE(r.err.find("wrong key"), std::string::npos) << r.err;
}

TEST_F(CliTest, ShardReleaseResumeFlagCompletesInterruptedRun) {
  // Interrupt a release with an injected kill mid-encode, then finish it
  // with --resume: the CLI round trip of the journal contract.
  const std::string out = TempPath("resume_release");
  const std::string key = TempPath("resume_release.key");
  const std::vector<std::string> args = {"shard-release", csv_path_,  out,
                                         key,             "--shards", "2",
                                         "--seed",        "6"};
  size_t total_ops = 0;
  {
    fault::ScopedFaultInjection probe(fault::FaultSchedule::CountOnly());
    ASSERT_EQ(RunPopp({"shard-release", csv_path_, TempPath("probe_rel"),
                       TempPath("probe_rel.key"), "--shards", "2", "--seed",
                       "6"})
                  .code,
              0);
    total_ops = probe.ops_seen();
  }
  {
    fault::ScopedFaultInjection inject(
        fault::FaultSchedule::CrashAt(total_ops / 2));
    const CliResult r = RunPopp(args);
    ASSERT_TRUE(inject.fired());
    ASSERT_NE(r.code, 0);
  }
  std::vector<std::string> resume_args = args;
  resume_args.push_back("--resume");
  const CliResult r = RunPopp(resume_args);
  ASSERT_EQ(r.code, 0) << r.err;
  ASSERT_EQ(RunPopp({"verify", out, "--manifest", "--key", key}).code, 0);
}

TEST(CliBasicsTest, ShardReleaseZeroShardsReported) {
  const CliResult r = RunPopp({"shard-release", "in.csv", "out", "key.out",
                               "--shards", "0"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--shards"), std::string::npos);
}

TEST(CliBasicsTest, ShardReleaseBadWorkersModeReported) {
  const CliResult r = RunPopp({"shard-release", "in.csv", "out", "key.out",
                               "--workers-mode", "goroutine"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("workers mode"), std::string::npos);
}

TEST(CliBasicsTest, ShardReleaseMissingInputReported) {
  const CliResult r = RunPopp({"shard-release", "/nonexistent/in.csv", "out",
                               "key.out"});
  EXPECT_EQ(r.code, 3);
}

// Forked workers through the CLI surface; the suite name keeps it out of
// sanitizer stages that cannot host fork().
class CliShardProcessTest : public CliTest {};

TEST_F(CliShardProcessTest, ProcessModeMatchesThreadMode) {
  const std::string thread_out = TempPath("wm_thread");
  const std::string process_out = TempPath("wm_process");
  ASSERT_EQ(RunPopp({"shard-release", csv_path_, thread_out,
                     TempPath("wm_thread.key"), "--shards", "3", "--seed",
                     "8"})
                .code,
            0);
  const CliResult r =
      RunPopp({"shard-release", csv_path_, process_out,
               TempPath("wm_process.key"), "--shards", "3", "--seed", "8",
               "--workers-mode", "process"});
  ASSERT_EQ(r.code, 0) << r.err;
  for (size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(ReadAll(shard::ShardFilePath(process_out, k)),
              ReadAll(shard::ShardFilePath(thread_out, k)))
        << "shard " << k;
  }
}

// ------------------------------------------------------- exit taxonomy --

TEST_F(CliTest, CorruptKeyExitsWithIntegrityCode) {
  // Produce a valid key, then flip one payload byte: the CRC64 footer
  // catches it and the CLI reports the corrupt-artifact exit code.
  const std::string released = TempPath("tax_released.csv");
  const std::string key = TempPath("tax_plan.key");
  ASSERT_EQ(RunPopp({"encode", csv_path_, released, key}).code, 0);
  std::string bytes;
  {
    std::ifstream in(key, std::ios::binary);
    std::ostringstream oss;
    oss << in.rdbuf();
    bytes = oss.str();
  }
  const size_t digit = bytes.find('.');
  ASSERT_NE(digit, std::string::npos);
  bytes[digit + 1] = bytes[digit + 1] == '9' ? '3' : '9';
  {
    std::ofstream out(key, std::ios::binary);
    out << bytes;
  }
  const std::string mined = TempPath("tax_mined.tree");
  ASSERT_EQ(RunPopp({"mine", released, mined}).code, 0);
  const CliResult r =
      RunPopp({"decode", mined, key, csv_path_, TempPath("tax_out.tree")});
  EXPECT_EQ(r.code, 4) << r.err;  // 4 = corrupt or integrity-failed artifact
  EXPECT_NE(r.err.find("DATA_LOSS"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("integrity checksum mismatch"), std::string::npos)
      << r.err;
}

TEST(CliBasicsTest, TruncatedKeyExitsWithIntegrityCode) {
  // A v2 key with its footer torn off is reported as truncation, not as a
  // vague parse error. (decode loads the tree first, so give it one.)
  const std::string tree_path = testing::TempDir() + "/popp_cli_trunc.tree";
  {
    std::ofstream out(tree_path, std::ios::binary);
    out << SerializeTree(DecisionTree{});
  }
  const std::string key = testing::TempDir() + "/popp_cli_trunc.key";
  {
    std::ofstream out(key, std::ios::binary);
    out << "popp-plan v2\nattributes 1\n";
  }
  const CliResult r = RunPopp({"decode", tree_path, key,
                               "whatever.csv", "out.tree"});
  EXPECT_EQ(r.code, 4) << r.err;
  EXPECT_NE(r.err.find("integrity footer"), std::string::npos) << r.err;
}

TEST(CliBasicsTest, UsageAdvertisesExitTaxonomy) {
  const CliResult r = RunPopp({"help"});
  ASSERT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("exit codes:"), std::string::npos);
  EXPECT_NE(r.out.find("--resume"), std::string::npos);
  // The supervision/overload taxonomy is pinned: 6 is the shed/deadline
  // exit, and the supervision flags are advertised.
  EXPECT_NE(r.out.find("6 deadline exceeded or overloaded"),
            std::string::npos);
  EXPECT_NE(r.out.find("--worker-deadline"), std::string::npos);
  EXPECT_NE(r.out.find("--max-worker-restarts"), std::string::npos);
  EXPECT_NE(r.out.find("--retry"), std::string::npos);
}

// ------------------------------------------------------- resumable CLI --

TEST_F(CliTest, StreamReleaseResumeFlagCompletesAndMatches) {
  // A plain run and a --resume run from scratch must produce identical
  // bytes (with no journal to resume, --resume degrades to a fresh run).
  const std::string plain_csv = TempPath("res_plain.csv");
  const std::string plain_key = TempPath("res_plain.key");
  const std::string res_csv = TempPath("res_resumed.csv");
  const std::string res_key = TempPath("res_resumed.key");
  ASSERT_EQ(RunPopp({"stream-release", csv_path_, plain_csv, plain_key,
                     "--seed", "9", "--chunk-rows", "73"})
                .code,
            0);
  const CliResult r =
      RunPopp({"stream-release", csv_path_, res_csv, res_key, "--seed", "9",
               "--chunk-rows", "73", "--resume"});
  ASSERT_EQ(r.code, 0) << r.err;
  const auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream s;
    s << in.rdbuf();
    return s.str();
  };
  EXPECT_EQ(slurp(plain_csv), slurp(res_csv));
  EXPECT_EQ(slurp(plain_key), slurp(res_key));
}

// --------------------------------------------------- popp-cols format --

TEST_F(CliTest, ColsConvertRoundTripReproducesTheCanonicalCsv) {
  const std::string cols_path = TempPath("conv.cols");
  const std::string back_path = TempPath("conv_back.csv");
  // --to defaults to the opposite format, so neither call needs a flag.
  const CliResult to_cols = RunPopp({"convert", csv_path_, cols_path});
  ASSERT_EQ(to_cols.code, 0) << to_cols.err;
  EXPECT_NE(to_cols.out.find("popp-cols v1"), std::string::npos);
  const CliResult to_csv = RunPopp({"convert", cols_path, back_path});
  ASSERT_EQ(to_csv.code, 0) << to_csv.err;
  auto original = ReadCsv(csv_path_);
  auto back = ReadCsv(back_path);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.value() == original.value());
  EXPECT_EQ(ToCsvString(back.value()), ToCsvString(original.value()));
}

TEST_F(CliTest, ColsStreamReleaseIsByteIdenticalToCsvInput) {
  const std::string cols_path = TempPath("fmt.cols");
  ASSERT_EQ(RunPopp({"convert", csv_path_, cols_path, "--to", "cols"}).code,
            0);
  const std::string csv_out = TempPath("fmt_csv_out.csv");
  const std::string csv_key = TempPath("fmt_csv.key");
  const std::string cols_out = TempPath("fmt_cols_out.csv");
  const std::string cols_key = TempPath("fmt_cols.key");
  ASSERT_EQ(RunPopp({"stream-release", csv_path_, csv_out, csv_key, "--seed",
                     "3", "--chunk-rows", "57"})
                .code,
            0);
  // Once auto-sniffed, once forced with --format.
  const CliResult r =
      RunPopp({"stream-release", cols_path, cols_out, cols_key, "--seed", "3",
               "--chunk-rows", "57", "--format", "cols"});
  ASSERT_EQ(r.code, 0) << r.err;
  const auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream s;
    s << in.rdbuf();
    return s.str();
  };
  EXPECT_EQ(slurp(csv_out), slurp(cols_out));
  EXPECT_EQ(slurp(csv_key), slurp(cols_key));
}

TEST_F(CliTest, ColsMineAcceptsTheBinaryFormatTransparently) {
  const std::string cols_path = TempPath("mine.cols");
  ASSERT_EQ(RunPopp({"convert", csv_path_, cols_path}).code, 0);
  const std::string tree_csv = TempPath("mine_csv.tree");
  const std::string tree_cols = TempPath("mine_cols.tree");
  ASSERT_EQ(RunPopp({"mine", csv_path_, tree_csv}).code, 0);
  const CliResult r = RunPopp({"mine", cols_path, tree_cols});
  ASSERT_EQ(r.code, 0) << r.err;
  auto a = LoadTree(tree_csv);
  auto b = LoadTree(tree_cols);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(ExactlyEqual(a.value(), b.value()));
}

TEST(CliColsFailure, CorruptContainerExitsWithDataLossCode) {
  const CliResult r = RunPopp(
      {"mine",
       std::string(POPP_TEST_DATA_DIR) + "/corrupt/cols_bitflip_footer.cols",
       TempPath("never.tree")});
  EXPECT_EQ(r.code, 4);
  EXPECT_NE(r.err.find("footer disagrees"), std::string::npos) << r.err;
}

TEST(CliColsFailure, UnknownFormatFlagIsAUsageError) {
  const CliResult r = RunPopp({"convert", "/dev/null", "/dev/null", "--to",
                               "parquet"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("parquet"), std::string::npos) << r.err;
}

/// An in-process popp-serve daemon backing the serve-client tests.
class CliServeTest : public CliTest {
 protected:
  void SetUp() override {
    CliTest::SetUp();
    socket_path_ = testing::TempDir() + "popp_cli_srv_" +
                   std::to_string(::getpid());
    serve::ServeOptions options;
    options.socket_path = socket_path_;
    options.num_threads = 2;
    server_ = std::make_unique<serve::Server>(options);
    ASSERT_TRUE(server_->Start().ok());
    thread_ = std::thread([this] { exit_code_ = server_->Serve(log_); });
  }

  void TearDown() override {
    server_->RequestShutdown();
    if (thread_.joinable()) thread_.join();
    EXPECT_EQ(exit_code_, 0) << log_.str();
  }

  std::string socket_path_;
  std::unique_ptr<serve::Server> server_;
  std::thread thread_;
  std::ostringstream log_;
  int exit_code_ = -1;
};

TEST_F(CliServeTest, ServedEncodeIsByteIdenticalToOneShotEncode) {
  const std::string cli_out = TempPath("srv_cli.csv");
  const std::string cli_key = TempPath("srv_cli.key");
  const std::string served_out = TempPath("srv_daemon.csv");
  ASSERT_EQ(RunPopp({"encode", csv_path_, cli_out, cli_key, "--seed", "9",
                     "--policy", "bp"})
                .code,
            0);
  const CliResult r =
      RunPopp({"serve-client", socket_path_, "encode", csv_path_, served_out,
               "--seed", "9", "--policy", "bp"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("written to " + served_out), std::string::npos);
  auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream s;
    s << in.rdbuf();
    return s.str();
  };
  EXPECT_EQ(slurp(served_out), slurp(cli_out));
  EXPECT_FALSE(slurp(served_out).empty());
}

TEST_F(CliServeTest, ServedFitWritesTheOneShotKeyBytes) {
  const std::string cli_out = TempPath("srv_fit_cli.csv");
  const std::string cli_key = TempPath("srv_fit_cli.key");
  const std::string served_key = TempPath("srv_fit_daemon.key");
  ASSERT_EQ(RunPopp({"encode", csv_path_, cli_out, cli_key, "--seed", "3"})
                .code,
            0);
  const CliResult r = RunPopp(
      {"serve-client", socket_path_, "fit", csv_path_, served_key, "--seed",
       "3"});
  ASSERT_EQ(r.code, 0) << r.err;
  std::ifstream a(cli_key, std::ios::binary), b(served_key,
                                                std::ios::binary);
  std::ostringstream sa, sb;
  sa << a.rdbuf();
  sb << b.rdbuf();
  EXPECT_EQ(sa.str(), sb.str());
  EXPECT_FALSE(sa.str().empty());
}

TEST_F(CliServeTest, StatsAndShutdownRoundTrip) {
  const CliResult stats =
      RunPopp({"serve-client", socket_path_, "stats", "--tenant", "me"});
  EXPECT_EQ(stats.code, 0) << stats.err;
  EXPECT_NE(stats.out.find("tenant: me"), std::string::npos) << stats.out;
  const CliResult bye = RunPopp({"serve-client", socket_path_, "shutdown"});
  EXPECT_EQ(bye.code, 0) << bye.err;
  // TearDown joins the drained daemon and asserts exit 0.
}

TEST_F(CliServeTest, HealthOpReportsAdmissionCounters) {
  const CliResult r = RunPopp({"serve-client", socket_path_, "health"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("healthy"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("inflight 0"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("max-inflight"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("connections"), std::string::npos) << r.out;
}

TEST_F(CliServeTest, ExpiredDeadlineIsTheOverloadExit) {
  // An already-expired deadline is shed with the explicit kUnavailable
  // reply; the CLI maps it onto exit 6, never a hang or a generic error.
  const std::string out = TempPath("srv_deadline.csv");
  std::remove(out.c_str());  // a prior run's success leaves the file behind
  const CliResult r =
      RunPopp({"serve-client", socket_path_, "encode", csv_path_, out,
               "--seed", "9", "--deadline-ms", "0"});
  EXPECT_EQ(r.code, 6) << r.err;
  EXPECT_NE(r.err.find("deadline exceeded"), std::string::npos) << r.err;
  EXPECT_FALSE(std::ifstream(out).good()) << "shed request wrote output";
  // The same request without a deadline still succeeds: the daemon shed
  // one request, not the connection.
  const CliResult ok =
      RunPopp({"serve-client", socket_path_, "encode", csv_path_, out,
               "--seed", "9"});
  EXPECT_EQ(ok.code, 0) << ok.err;
}

TEST(CliServeFailure, MissingSocketIsAnIoExit) {
  const CliResult r = RunPopp({"serve-client",
                               testing::TempDir() + "no_such_popp_socket",
                               "stats"});
  EXPECT_EQ(r.code, 3);
  EXPECT_NE(r.err.find("is the daemon running"), std::string::npos) << r.err;
}

TEST(CliServeFailure, UnknownOpIsAUsageError) {
  const CliResult r = RunPopp({"serve-client", "/tmp/sock", "frobnicate"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("frobnicate"), std::string::npos) << r.err;
}

TEST(CliServeFailure, MissingArgumentsIsAUsageError) {
  EXPECT_EQ(RunPopp({"serve-client"}).code, 2);
  EXPECT_EQ(RunPopp({"serve-client", "/tmp/sock", "encode", "only-in"}).code,
            2);
}

}  // namespace
}  // namespace popp
