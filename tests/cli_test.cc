#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <thread>

#include "core/cli.h"
#include "data/cols.h"
#include "data/csv.h"
#include "fault/failpoint.h"
#include "fault/file.h"
#include "serve/server.h"
#include "shard/meta_manifest.h"
#include "synth/covtype_like.h"
#include "synth/presets.h"
#include "temp_path.h"
#include "transform/serialize.h"
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

/// Fits a key on the first `rows` rows of `data` with `popp encode --seed
/// 9` and returns its path.
std::string FitPrefixKey(const Dataset& data, size_t rows,
                         const std::string& name) {
  std::vector<size_t> prefix(rows);
  for (size_t r = 0; r < rows; ++r) prefix[r] = r;
  const std::string csv = TempPath(name + "_prefix.csv");
  EXPECT_TRUE(WriteCsv(data.Select(prefix), csv).ok());
  const std::string key = TempPath(name + "_prefix.key");
  EXPECT_EQ(RunPopp({"encode", csv, TempPath(name + "_prefix_out.csv"), key,
                     "--seed", "9"})
                .code,
            0);
  return key;
}

TEST_F(CliTest, StreamReleaseRejectErrorIsActionable) {
  // A key fitted on the first 100 rows leaves the tail's unseen values
  // out-of-domain; the default reject policy must name the attribute, the
  // offending value, the fitted domain, and the active policy.
  const CliResult r =
      RunPopp({"stream-release", csv_path_, TempPath("rej.csv"),
               TempPath("rej.key"), "--chunk-rows", "50", "--key-in",
               FitPrefixKey(data_, 100, "rej")});
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
               TempPath("clamp.key"), "--chunk-rows", "50", "--key-in",
               FitPrefixKey(data_, 100, "clamp"), "--ood-policy", "clamp"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("out-of-domain values:"), std::string::npos);
}

TEST(CliBasicsTest, KeyInUnseenValueInsideBijectivePieceIsOutOfDomain) {
  // The key is fitted on 40 rows whose x values form two monochromatic
  // runs, {0, 2, ..., 38} of class a and {100, ..., 138} of class b, so
  // each run is one permutation piece. The release adds x = 17: inside
  // the hull and inside the first piece, but not a value it was fitted
  // on, so the piece would snap it onto the image of 16 or 18.
  std::ostringstream prefix, full;
  prefix << "x,class\n";
  for (int i = 0; i < 20; ++i) prefix << 2 * i << ",a\n";
  for (int i = 0; i < 20; ++i) prefix << 100 + 2 * i << ",b\n";
  full << prefix.str() << "17,a\n";
  const std::string prefix_csv = TempPath("bij_prefix.csv");
  const std::string full_csv = TempPath("bij_full.csv");
  ASSERT_TRUE(fault::WriteFileAtomic(prefix_csv, prefix.str()).ok());
  ASSERT_TRUE(fault::WriteFileAtomic(full_csv, full.str()).ok());
  const std::string key = TempPath("bij_prefix.key");
  ASSERT_EQ(RunPopp({"encode", prefix_csv, TempPath("bij_prefix_out.csv"),
                     key, "--seed", "9"})
                .code,
            0);
  auto plan = LoadPlan(key);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const PiecewiseTransform& t = plan.value().transform(0);
  ASSERT_EQ(t.NumPieces(), 2u);
  ASSERT_TRUE(t.piece(0).bijective);

  for (const std::string policy : {"reject", "extend-piece"}) {
    const CliResult r =
        RunPopp({"stream-release", full_csv, TempPath("bij.csv"),
                 TempPath("bij.key"), "--key-in", key, "--ood-policy", policy});
    EXPECT_EQ(r.code, 1) << policy << ": " << r.out;
    EXPECT_NE(r.err.find("stream row 41: attribute 'x' = 17"),
              std::string::npos)
        << r.err;
    EXPECT_NE(r.err.find("permutation piece [0, 38]"), std::string::npos)
        << r.err;
    EXPECT_NE(r.err.find("ood-policy: " + policy), std::string::npos)
        << r.err;
  }
  const CliResult r =
      RunPopp({"stream-release", full_csv, TempPath("bij.csv"),
               TempPath("bij.key"), "--key-in", key, "--ood-policy", "clamp"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("out-of-domain values: 1\n"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("ood[x]: 1"), std::string::npos) << r.out;
}

TEST(CliBasicsTest, NonFiniteCellsAreRefusedNamingRowAndAttribute) {
  // The readers carry inf and nan faithfully, but no fit can place them:
  // every release command must refuse them (exit 1) instead of aborting
  // or exhausting memory in the fit.
  const std::string inf_csv = TempPath("inf.csv");
  const std::string nan_csv = TempPath("nan.csv");
  const std::string nan_cols = TempPath("nan.cols");
  ASSERT_TRUE(
      fault::WriteFileAtomic(inf_csv, "x,y,class\n1,2,a\n-inf,3,b\n4,5,a\n")
          .ok());
  ASSERT_TRUE(
      fault::WriteFileAtomic(nan_csv, "x,y,class\n1,2,a\n4,nan,b\n4,5,a\n")
          .ok());
  ASSERT_EQ(RunPopp({"convert", nan_csv, nan_cols}).code, 0);
  const std::string inf_message = "row 2: attribute 'x' = -inf";
  const std::string nan_message = "row 2: attribute 'y' = nan";
  const std::vector<std::pair<std::vector<std::string>, std::string>> runs = {
      {{"encode", inf_csv, TempPath("nf.csv"), TempPath("nf.key")},
       inf_message},
      {{"encode", nan_csv, TempPath("nf.csv"), TempPath("nf.key")},
       nan_message},
      {{"encode", nan_cols, TempPath("nf.csv"), TempPath("nf.key")},
       nan_message},
      {{"stream-release", inf_csv, TempPath("nf.csv"), TempPath("nf.key"),
        "--chunk-rows", "1"},
       inf_message},
      {{"stream-release", nan_cols, TempPath("nf.csv"), TempPath("nf.key")},
       nan_message},
      {{"shard-release", inf_csv, TempPath("nf.csv"), TempPath("nf.key"),
        "--shards", "3", "--chunk-rows", "1"},
       inf_message},
  };
  for (const auto& [args, message] : runs) {
    const CliResult r = RunPopp(args);
    EXPECT_EQ(r.code, 1) << args[0] << " " << args[1] << ": " << r.err;
    EXPECT_NE(r.err.find("non-finite value at " + message), std::string::npos)
        << args[0] << " " << args[1] << ": " << r.err;
  }
}

TEST(CliBasicsTest, DatasetWithNoRowsIsRefusedByEveryCommandThatReadsOne) {
  // A header-only dataset has nothing to fit, mine, decode against or
  // report on: each command refuses it (exit 1) instead of aborting.
  const std::string empty_csv = TempPath("empty.csv");
  const std::string empty_cols = TempPath("empty.cols");
  const std::string data_csv = TempPath("data.csv");
  ASSERT_TRUE(fault::WriteFileAtomic(empty_csv, "a,b,class\n").ok());
  ASSERT_EQ(RunPopp({"convert", empty_csv, empty_cols}).code, 0);
  ASSERT_TRUE(
      fault::WriteFileAtomic(data_csv, "a,b,class\n1,2,x\n3,4,y\n5,6,x\n")
          .ok());
  // decode reads its tree and key before the data, so give it real ones.
  const std::string key = TempPath("data.key");
  const std::string tree = TempPath("data.tree");
  ASSERT_EQ(RunPopp({"encode", data_csv, TempPath("released.csv"), key}).code,
            0);
  ASSERT_EQ(RunPopp({"mine", TempPath("released.csv"), tree}).code, 0);
  const std::string out = TempPath("out");
  const std::vector<std::vector<std::string>> runs = {
      {"encode", empty_csv, out, TempPath("out.key")},
      {"encode", empty_cols, out, TempPath("out.key")},
      {"mine", empty_csv, out},
      {"decode", tree, key, empty_csv, out},
      {"verify", empty_csv},
      {"report", empty_csv, "--trials", "3"},
      {"harden", empty_csv, "--trials", "3"},
  };
  for (const std::vector<std::string>& args : runs) {
    const std::string& path = args[0] == "decode" ? args[3] : args[1];
    const CliResult r = RunPopp(args);
    EXPECT_EQ(r.code, 1) << args[0] << " " << path << ": " << r.err;
    EXPECT_NE(r.err.find("'" + path + "' has no data rows"),
              std::string::npos)
        << args[0] << ": " << r.err;
  }
}

TEST(CliBasicsTest, ReportAndHardenRunOnConstantAttributes) {
  // An attribute with one distinct value has a crack radius of 0; in a
  // one-row dataset every attribute does.
  const std::string constant = TempPath("constant.csv");
  const std::string one_row = TempPath("one_row.csv");
  ASSERT_TRUE(fault::WriteFileAtomic(
                  constant, "a,b,class\n1,5,x\n2,5,y\n3,5,x\n4,5,y\n5,5,x\n")
                  .ok());
  ASSERT_TRUE(fault::WriteFileAtomic(one_row, "a,b,class\n1,5,x\n").ok());
  for (const std::string& path : {constant, one_row}) {
    for (const char* command : {"report", "harden"}) {
      const CliResult r = RunPopp({command, path, "--trials", "3"});
      EXPECT_EQ(r.code, 0) << command << " " << path << ": " << r.err;
      EXPECT_NE(r.out.find("\nb "), std::string::npos) << r.out;
    }
  }
  // Every knowledge point lands on the one value, so every attack cracks
  // the constant attribute.
  const CliResult report = RunPopp({"report", constant, "--trials", "3"});
  const size_t row = report.out.find("\nb ");
  ASSERT_NE(row, std::string::npos) << report.out;
  const std::string line =
      report.out.substr(row + 1, report.out.find('\n', row + 1) - row - 1);
  EXPECT_NE(line.find("| 100.0%         | 100.0%       | 100.0%"),
            std::string::npos)
      << line;
  EXPECT_NE(line.find("REVIEW"), std::string::npos) << line;
}

TEST(CliBasicsTest, DatasetWithNoAttributesIsRefusedByEveryRelease) {
  // A popp-cols container may hold rows but no attributes. No plan can be
  // fitted to it, so each release refuses it (stream and shard release
  // aborted, encode wrote a key that decode then refused), while mine and
  // verify still run on it.
  Dataset data(std::vector<std::string>{}, {"x", "y"});
  for (int r = 0; r < 4; ++r) data.AddRow({}, r % 2);
  const std::string path = TempPath("noattr.cols");
  ASSERT_TRUE(WriteCols(data, path).ok());
  const std::string out = TempPath("noattr_out.csv");
  const std::string key = TempPath("noattr.key");
  std::remove(key.c_str());
  for (const std::vector<std::string>& args :
       std::vector<std::vector<std::string>>{
           {"encode", path, out, key},
           {"stream-release", path, out, key},
           {"shard-release", path, out, key, "--shards", "2"}}) {
    const CliResult r = RunPopp(args);
    EXPECT_EQ(r.code, 1) << args[0] << ": " << r.err;
    EXPECT_NE(r.err.find("no attributes"), std::string::npos)
        << args[0] << ": " << r.err;
  }
  EXPECT_FALSE(std::ifstream(key).good()) << "a refused release wrote a key";
  const CliResult mine = RunPopp({"mine", path, TempPath("noattr.tree")});
  EXPECT_EQ(mine.code, 0) << mine.err;
  const CliResult verify = RunPopp({"verify", path});
  EXPECT_EQ(verify.code, 0) << verify.err;
}

TEST(CliBasicsTest, EveryBadFlagValueIsRefusedBeforeAnyFileIsOpened) {
  // No input exists, so a run that opened a file would exit 3. A choice no
  // parse function knows and a count out of range must be refused first,
  // in either spelling, by the parser: exit 2, naming the flag.
  const std::string in = "/nonexistent/in.csv";
  const std::vector<std::pair<std::vector<std::string>,
                              std::vector<std::string>>>
      runs = {
          {{"encode", in, "o", "k"}, {"format", "policy"}},
          {{"stream-release", in, "o", "k", "--key-in", "k"},
           {"format", "policy", "ood-policy", "chunk-rows"}},
          {{"shard-release", in, "o", "k"},
           {"format", "policy", "workers-mode", "shards", "chunk-rows"}},
          {{"mine", in, "t"}, {"format", "criterion"}},
          {{"decode", "/nonexistent/t", "/nonexistent/k", in, "o"},
           {"format"}},
          {{"verify", in}, {"format", "policy", "criterion"}},
          {{"report", in}, {"format", "trials"}},
          {{"harden", in}, {"format", "trials", "max-risk"}},
          {{"convert", in, "o"}, {"format", "to"}},
      };
  const std::set<std::string> counts = {"chunk-rows", "shards", "trials",
                                        "max-risk"};
  for (const auto& [command, flags] : runs) {
    for (const std::string& flag : flags) {
      const std::string value = counts.count(flag) > 0 ? "0" : "bogus";
      for (const std::vector<std::string>& spelling :
           std::vector<std::vector<std::string>>{
               {"--" + flag, value}, {"--" + flag + "=" + value}}) {
        std::vector<std::string> args = command;
        args.insert(args.end(), spelling.begin(), spelling.end());
        const CliResult r = RunPopp(args);
        EXPECT_EQ(r.code, 2) << command[0] << " " << spelling[0] << ": "
                             << r.err;
        EXPECT_EQ(r.err.rfind("popp " + command[0] + ": --" + flag, 0), 0u)
            << r.err;
      }
    }
  }
}

TEST(CliBasicsTest, StreamReleaseRemovedFitModesAreUsageErrors) {
  // Prefix fitting and the refit policy are gone, and --ood-policy only
  // means something next to --key-in.
  for (const std::vector<std::string>& flags :
       std::vector<std::vector<std::string>>{
           {"--fit-rows", "100"},
           {"--ood-policy", "refit"},
           {"--ood-policy", "clamp"}}) {
    std::vector<std::string> args = {"stream-release", "in.csv", "out.csv",
                                     "key.out"};
    args.insert(args.end(), flags.begin(), flags.end());
    const CliResult r = RunPopp(args);
    EXPECT_EQ(r.code, 2) << flags[0] << " " << flags[1] << ": " << r.err;
  }
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

TEST(CliBasicsTest, TrialsAndMaxRiskOutOfRangeAreUsageErrors) {
  // Checked before any file is opened, so the risk harnesses never see a
  // zero trial count or a risk target outside (0, 1].
  const std::vector<std::pair<std::vector<std::string>, std::string>> runs = {
      {{"report", "in.csv", "--trials", "0"}, "--trials must be >= 1"},
      {{"harden", "in.csv", "--trials", "0"}, "--trials must be >= 1"},
      {{"harden", "in.csv", "--max-risk", "0"}, "--max-risk must be in 1-100"},
      {{"harden", "in.csv", "--max-risk", "101"},
       "--max-risk must be in 1-100, got 101"},
  };
  for (const auto& [args, message] : runs) {
    const CliResult r = RunPopp(args);
    EXPECT_EQ(r.code, 2) << args[0] << " " << args[2] << " " << args[3];
    EXPECT_NE(r.err.find(message), std::string::npos) << r.err;
  }
}

TEST(CliBasicsTest, DecodeRefusesTreeKeyAndDataThatDisagree) {
  // The data has 3 attributes and 2 classes. Each decode below names
  // something it lacks and must fail with INVALID_ARGUMENT (exit 1).
  const std::string data_csv = TempPath("agree.csv");
  const std::string wide_csv = TempPath("agree_wide.csv");
  ASSERT_TRUE(fault::WriteFileAtomic(
                  data_csv, "a,b,c,class\n1,2,3,x\n4,5,6,y\n7,8,9,x\n")
                  .ok());
  ASSERT_TRUE(fault::WriteFileAtomic(
                  wide_csv, "a,b,c,d,e,class\n1,2,3,4,5,x\n6,7,8,9,10,y\n")
                  .ok());
  const std::string key = TempPath("agree.key");
  const std::string wide_key = TempPath("agree_wide.key");
  ASSERT_EQ(RunPopp({"encode", data_csv, TempPath("agree_out.csv"), key})
                .code,
            0);
  ASSERT_EQ(RunPopp({"encode", wide_csv, TempPath("agree_out.csv"),
                     wide_key})
                .code,
            0);
  const auto write_tree = [](const std::string& name, size_t attribute,
                             ClassId right_label) {
    DecisionTree tree;
    const NodeId left = tree.AddLeaf(0);
    const NodeId right = tree.AddLeaf(right_label);
    tree.SetRoot(tree.AddInternal(attribute, 0.5, left, right));
    const std::string path = TempPath(name);
    EXPECT_TRUE(SaveTree(tree, path).ok());
    return path;
  };
  const std::string fits = write_tree("agree_fits.tree", 0, 1);
  const std::vector<std::pair<std::vector<std::string>, std::string>> runs = {
      {{"decode", fits, wide_key, data_csv, TempPath("agree_dec.tree")},
       "the key has 5 attributes but the data has 3 attributes"},
      {{"decode", write_tree("agree_attr.tree", 3, 1), key, data_csv,
        TempPath("agree_dec.tree")},
       "the tree splits on attribute index 3 but the data has 3 attributes"},
      {{"decode", write_tree("agree_class.tree", 0, 2), key, data_csv,
        TempPath("agree_dec.tree")},
       "the tree predicts class id 2 but the data has 2 classes"},
  };
  for (const auto& [args, message] : runs) {
    const CliResult r = RunPopp(args);
    EXPECT_EQ(r.code, 1) << r.err;
    EXPECT_NE(r.err.find("INVALID_ARGUMENT"), std::string::npos) << r.err;
    EXPECT_NE(r.err.find(message), std::string::npos) << r.err;
  }
  const CliResult ok =
      RunPopp({"decode", fits, key, data_csv, TempPath("agree_dec.tree")});
  EXPECT_EQ(ok.code, 0) << ok.err;
}

TEST(CliBasicsTest, DecodeRefusesASplitThatInterleavesOriginalValues) {
  // x = 0, 2, ..., 38 (class a) is one permutation piece of the key. A
  // tree mined from other data can cut its images so that the two sides
  // hold interleaved originals, which no original-space threshold routes.
  std::ostringstream csv;
  csv << "x,class\n";
  for (int i = 0; i < 20; ++i) csv << 2 * i << ",a\n";
  for (int i = 0; i < 20; ++i) csv << 100 + 2 * i << ",b\n";
  const std::string data_csv = TempPath("interleave.csv");
  ASSERT_TRUE(fault::WriteFileAtomic(data_csv, csv.str()).ok());
  const std::string key = TempPath("interleave.key");
  ASSERT_EQ(RunPopp({"encode", data_csv, TempPath("interleave_out.csv"), key,
                     "--seed", "9"})
                .code,
            0);
  auto plan = LoadPlan(key);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_TRUE(plan.value().transform(0).piece(0).bijective);
  // Originals in image order; cut after the first k whose originals are
  // not the k smallest.
  std::vector<std::pair<double, int>> by_image;
  for (int i = 0; i < 20; ++i) {
    by_image.push_back({plan.value().Encode(0, 2 * i), 2 * i});
  }
  std::sort(by_image.begin(), by_image.end());
  size_t k = 1;
  int left_max = by_image[0].second;
  while (left_max == 2 * static_cast<int>(k - 1)) {
    ASSERT_LT(k, by_image.size() - 1) << "the permutation is the identity";
    left_max = std::max(left_max, by_image[k++].second);
  }
  DecisionTree tree;
  const NodeId left = tree.AddLeaf(0);
  const NodeId right = tree.AddLeaf(1);
  tree.SetRoot(tree.AddInternal(
      0, (by_image[k - 1].first + by_image[k].first) / 2, left, right));
  const std::string tree_path = TempPath("interleave.tree");
  ASSERT_TRUE(SaveTree(tree, tree_path).ok());
  const CliResult r = RunPopp(
      {"decode", tree_path, key, data_csv, TempPath("interleave_dec.tree")});
  EXPECT_EQ(r.code, 1) << r.err;
  EXPECT_NE(r.err.find("the split on attribute 'x' leaves sides that "
                       "interleave in original space"),
            std::string::npos)
      << r.err;
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
  const std::string tree_path = TempPath("trunc.tree");
  {
    std::ofstream out(tree_path, std::ios::binary);
    out << SerializeTree(DecisionTree{});
  }
  const std::string key = TempPath("trunc.key");
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

TEST_F(CliServeTest, BadRiskAndDecodeRequestsFailWithoutKillingTheDaemon) {
  // The data has 3 attributes; the tree splits on attribute index 4.
  DecisionTree wide;
  const NodeId left = wide.AddLeaf(0);
  const NodeId right = wide.AddLeaf(1);
  wide.SetRoot(wide.AddInternal(4, 0.5, left, right));
  const std::string wide_tree = TempPath("srv_wide.tree");
  ASSERT_TRUE(SaveTree(wide, wide_tree).ok());
  const CliResult risk = RunPopp(
      {"serve-client", socket_path_, "risk", csv_path_, "--trials", "0"});
  EXPECT_EQ(risk.code, 1) << risk.err;
  EXPECT_NE(risk.err.find("'trials' must be >= 1"), std::string::npos)
      << risk.err;
  const CliResult decode =
      RunPopp({"serve-client", socket_path_, "decode", wide_tree, csv_path_,
               TempPath("srv_wide_out.tree")});
  EXPECT_EQ(decode.code, 1) << decode.err;
  EXPECT_NE(decode.err.find("the tree splits on attribute index 4"),
            std::string::npos)
      << decode.err;
  const CliResult health = RunPopp({"serve-client", socket_path_, "health"});
  EXPECT_EQ(health.code, 0) << health.err;
  // TearDown drains the daemon and asserts exit 0.
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
