#include "core/cli.h"

#include <algorithm>
#include <map>
#include <optional>
#include <string_view>

#include "core/custodian.h"
#include "core/recipe.h"
#include "core/report.h"
#include "data/cols.h"
#include "data/csv.h"
#include "fault/file.h"
#include "parallel/exec_policy.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "shard/meta_manifest.h"
#include "shard/pipeline.h"
#include "stream/chunk_io.h"
#include "stream/cols_io.h"
#include "stream/manifest.h"
#include "stream/streaming_custodian.h"
#include "transform/compiled.h"
#include "transform/serialize.h"
#include "transform/tree_decode.h"
#include "tree/builder.h"
#include "tree/compare.h"
#include "tree/prune.h"
#include "tree/serialize.h"
#include "util/crc64.h"
#include "util/decimal.h"

namespace popp {
namespace {

constexpr char kUsage[] =
    "usage: popp <command> [args]\n"
    "\n"
    "custodian commands:\n"
    "  encode <in.csv> <out.csv> <key.out> [--seed N] [--policy "
    "none|bp|maxmp]\n"
    "         [--breakpoints W] [--anti]\n"
    "  stream-release <in.csv> <out.csv> <key.out> [--chunk-rows N]\n"
    "         [--ood-policy reject|clamp|extend-piece|refit] [--fit-rows N]\n"
    "         [--key-in key] [--seed N] [--policy none|bp|maxmp]\n"
    "         [--breakpoints W] [--anti] [--resume]\n"
    "  shard-release <in> <out> <key.out> [--shards N] [--workers-mode\n"
    "         thread|process] [--chunk-rows N] [--seed N]\n"
    "         [--policy none|bp|maxmp] [--breakpoints W] [--anti] [--resume]\n"
    "         [--worker-deadline MS] [--max-worker-restarts N]\n"
    "  decode <tree.in> <key> <original.csv> <tree.out>\n"
    "  verify <original.csv> [--seed N] [--policy none|bp|maxmp]\n"
    "         [--breakpoints W] [--anti] [--criterion gini|entropy|gainratio]\n"
    "         [--max-depth D] [--min-leaf N]\n"
    "  verify <release> --manifest [--key key]\n"
    "  report <data.csv> [--trials N] [--seed N]\n"
    "  harden <data.csv> [--max-risk PCT] [--trials N] [--seed N]\n"
    "  convert <in> <out> [--to csv|cols]\n"
    "\n"
    "provider commands:\n"
    "  mine <data.csv> <tree.out> [--criterion gini|entropy|gainratio]\n"
    "       [--prune] [--max-depth D] [--min-leaf N]\n"
    "\n"
    "daemon commands (against a running popp-serve):\n"
    "  serve-client <socket> fit <in.csv> <key.out> [--save RELPATH]\n"
    "      (--save is server-side, confined to the daemon's\n"
    "       --save-dir/<tenant>/; absolute paths and '..' are refused)\n"
    "  serve-client <socket> encode <in.csv> <out.csv>\n"
    "  serve-client <socket> decode <tree.in> <original.csv> <tree.out>\n"
    "  serve-client <socket> verify <in.csv>\n"
    "  serve-client <socket> risk <in.csv> [--trials N]\n"
    "  serve-client <socket> stats\n"
    "  serve-client <socket> health\n"
    "  serve-client <socket> shutdown\n"
    "  all take --tenant NAME (default 'default') plus the usual --seed,\n"
    "  --policy, --breakpoints, --anti, --threads, --trials, --save flags,\n"
    "  and --deadline-ms MS / --retry N: the deadline rides the request\n"
    "  (the daemon sheds it with an explicit 'overloaded'/'deadline\n"
    "  exceeded' reply, exit 6, instead of hanging) and --retry retries\n"
    "  shed replies with deterministic backoff, honoring the daemon's\n"
    "  retry-after-ms hint;\n"
    "  dataset files are sent to the daemon verbatim, so a popp-cols input\n"
    "  rides the zero-copy path. Outputs are written atomically\n"
    "  client-side; daemon-served encode output is byte-identical to\n"
    "  `popp encode` with the same flags. Encode replies mirror the\n"
    "  request framing: a CSV input yields the CLI's CSV, a popp-cols\n"
    "  input yields the release as popp-cols (~50x cheaper to\n"
    "  serialize).\n"
    "\n"
    "every command also accepts --threads N (default 1 = serial; 0 = all\n"
    "hardware threads). Results are bit-identical for every N.\n"
    "every dataset input accepts --format csv|cols|auto (default auto:\n"
    "sniff the 'poppcols' magic). popp-cols is the binary columnar\n"
    "container; convert translates between the two, defaulting --to to\n"
    "the opposite of the input's format. Release output is byte-identical\n"
    "whichever format the input arrives in.\n"
    "Flags are checked strictly: a flag the command does not take, or a\n"
    "numeric value that is not a whole unsigned decimal (--seed 3x,\n"
    "--seed -1), is a usage error.\n"
    "\n"
    "stream-release journals progress in <out.csv>.manifest and stages\n"
    "bytes in <out.csv>.partial; --resume continues an interrupted run\n"
    "(byte-identical to an uninterrupted one) instead of starting over.\n"
    "\n"
    "shard-release splits the input into --shards disjoint row ranges,\n"
    "summarizes them in parallel (thread workers, or forked processes\n"
    "with --workers-mode process), fits one global plan from the merged\n"
    "summaries, then encodes each shard into <out>.shard<k> behind its\n"
    "own journal (--resume continues crashed shards independently).\n"
    "With --workers-mode process each worker is supervised: a worker\n"
    "silent past --worker-deadline MS (default 30000; 0 disables the\n"
    "watchdog) is killed and restarted with jittered exponential backoff,\n"
    "resuming from its own journal, up to --max-worker-restarts times\n"
    "(default 2) before the shard is quarantined with its failure\n"
    "history. A fresh (non---resume) run first sweeps orphaned working\n"
    "files (*.sum/*.partial/*.manifest/*.tmp/*.hb debris from dead\n"
    "runs); --resume keeps them, because they are the resume state.\n"
    "<out> itself is the atomic manifest-of-manifests; the concatenated\n"
    "shard files are byte-identical to stream-release with the same\n"
    "flags. `verify <out> --manifest` re-checks every shard's length and\n"
    "CRC-64 shard by shard, without materializing the dataset; --key\n"
    "also binds the key file to the release's plan CRC.\n"
    "\n"
    "exit codes: 0 success, 1 runtime failure, 2 usage error,\n"
    "3 file/I-O error, 4 corrupt or integrity-failed artifact,\n"
    "5 internal error, 6 deadline exceeded or overloaded.\n";

/// Maps a failed Status onto the CLI exit-code taxonomy above.
int ExitFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kNotFound:
    case StatusCode::kIoError:
      return 3;
    case StatusCode::kDataLoss:
      return 4;
    case StatusCode::kInternal:
      return 5;
    case StatusCode::kUnavailable:
      return 6;
    default:
      return 1;
  }
}

/// Splits `args` into positional arguments and --flag[=value] options
/// (flags may also take their value as the next token).
struct ParsedArgs {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;  // name (no dashes) -> value
};

/// Flags that take no value, and flags whose value is free text. Every
/// other flag a command takes needs an unsigned decimal value.
constexpr std::string_view kSwitchFlags[] = {"anti", "manifest", "prune",
                                             "resume"};
constexpr std::string_view kTextFlags[] = {
    "criterion", "format", "key",    "key-in", "ood-policy",
    "policy",    "save",   "tenant", "to",     "workers-mode"};

template <typename List>
bool Contains(const List& list, std::string_view name) {
  return std::find(std::begin(list), std::end(list), name) != std::end(list);
}

/// Parses `args` for `command`, which takes the flags in `accepted` plus
/// --threads. An unknown flag, a switch given a value, a missing value or
/// a non-decimal number is reported to `err` and yields nullopt (exit 2).
std::optional<ParsedArgs> Parse(const std::string& command,
                                const std::vector<std::string>& args,
                                const std::vector<std::string>& accepted,
                                std::ostream& err) {
  const auto fail = [&](const std::string& what) {
    err << "popp " << command << ": " << what << "\n";
    return std::nullopt;
  };
  ParsedArgs parsed;
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) != 0) {
      parsed.positional.push_back(arg);
      continue;
    }
    std::string name = arg.substr(2);
    std::optional<std::string> value;
    const size_t eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name.resize(eq);
    }
    if (name != "threads" && !Contains(accepted, name)) {
      return fail("unknown flag --" + name + " (see popp help)");
    }
    if (Contains(kSwitchFlags, name)) {
      if (value) return fail("--" + name + " takes no value");
      parsed.flags[name];
      continue;
    }
    if (!value) {
      if (i + 1 == args.size()) return fail("--" + name + " needs a value");
      value = args[++i];
    }
    uint64_t number = 0;
    if (!Contains(kTextFlags, name) && !ParseDecimalU64(*value, &number)) {
      return fail("--" + name + " needs an unsigned decimal integer, got '" +
                  *value + "'");
    }
    parsed.flags[name] = *value;
  }
  return parsed;
}

/// A numeric flag's value (Parse has checked it), or `fallback` if absent.
uint64_t FlagInt(const ParsedArgs& args, const std::string& name,
                 uint64_t fallback) {
  auto it = args.flags.find(name);
  uint64_t value = fallback;
  if (it != args.flags.end()) ParseDecimalU64(it->second, &value);
  return value;
}

ExecPolicy ExecFlags(const ParsedArgs& args) {
  return ExecPolicy{static_cast<size_t>(FlagInt(args, "threads", 1))};
}

std::optional<PiecewiseOptions> TransformFlags(const ParsedArgs& args,
                                               std::ostream& err) {
  PiecewiseOptions options;
  auto it = args.flags.find("policy");
  if (it != args.flags.end()) {
    if (it->second == "none") {
      options.policy = BreakpointPolicy::kNone;
    } else if (it->second == "bp") {
      options.policy = BreakpointPolicy::kChooseBP;
    } else if (it->second == "maxmp") {
      options.policy = BreakpointPolicy::kChooseMaxMP;
    } else {
      err << "unknown --policy '" << it->second << "'\n";
      return std::nullopt;
    }
  }
  options.min_breakpoints = FlagInt(args, "breakpoints", 20);
  options.global_anti_monotone = args.flags.count("anti") > 0;
  return options;
}

/// Resolves a --format / --to style flag; absent means kAuto.
Result<stream::DatasetFormat> FormatFlag(const ParsedArgs& args,
                                         const std::string& name) {
  auto it = args.flags.find(name);
  if (it == args.flags.end() || it->second.empty()) {
    return stream::DatasetFormat::kAuto;
  }
  return stream::ParseDatasetFormat(it->second);
}

/// Loads a whole dataset honoring the command's --format flag (auto-sniffs
/// by default, so existing CSV invocations keep working unchanged).
Result<Dataset> ReadDataset(const ParsedArgs& args, const std::string& path) {
  auto requested = FormatFlag(args, "format");
  if (!requested.ok()) return requested.status();
  auto format = stream::SniffDatasetFormat(path, requested.value());
  if (!format.ok()) return format.status();
  if (format.value() == stream::DatasetFormat::kCols) return ReadCols(path);
  return ReadCsv(path);
}

std::optional<BuildOptions> TreeFlags(const ParsedArgs& args,
                                      std::ostream& err) {
  BuildOptions options;
  auto it = args.flags.find("criterion");
  if (it != args.flags.end()) {
    if (it->second == "gini") {
      options.criterion = SplitCriterion::kGini;
    } else if (it->second == "entropy") {
      options.criterion = SplitCriterion::kEntropy;
    } else if (it->second == "gainratio") {
      options.criterion = SplitCriterion::kGainRatio;
    } else {
      err << "unknown --criterion '" << it->second << "'\n";
      return std::nullopt;
    }
  }
  options.max_depth = FlagInt(args, "max-depth", options.max_depth);
  options.min_leaf_size = FlagInt(args, "min-leaf", options.min_leaf_size);
  return options;
}

int CmdEncode(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 3) {
    err << "encode needs <in.csv> <out.csv> <key.out>\n";
    return 2;
  }
  auto data = ReadDataset(args, args.positional[0]);
  if (!data.ok()) {
    err << data.status().ToString() << "\n";
    return ExitFor(data.status());
  }
  auto options = TransformFlags(args, err);
  if (!options) return 2;
  Rng rng(FlagInt(args, "seed", 1));
  const TransformPlan plan =
      TransformPlan::Create(data.value(), *options, rng, ExecFlags(args));
  const Dataset released =
      CompiledPlan::Compile(plan).EncodeDataset(data.value(), ExecFlags(args));

  Status status = WriteCsv(released, args.positional[1]);
  if (!status.ok()) {
    err << status.ToString() << "\n";
    return ExitFor(status);
  }
  status = SavePlan(plan, args.positional[2]);
  if (!status.ok()) {
    err << status.ToString() << "\n";
    return ExitFor(status);
  }
  out << "encoded " << released.NumRows() << " rows x "
      << released.NumAttributes() << " attributes -> " << args.positional[1]
      << "\nkey written to " << args.positional[2]
      << " (keep it secret; it decodes the mining outcome)\n";
  return 0;
}

int CmdStreamRelease(const ParsedArgs& args, std::ostream& out,
                     std::ostream& err) {
  if (args.positional.size() != 3) {
    err << "stream-release needs <in.csv> <out.csv> <key.out>\n";
    return 2;
  }
  auto transform = TransformFlags(args, err);
  if (!transform) return 2;
  stream::StreamOptions options;
  options.transform = *transform;
  options.seed = FlagInt(args, "seed", 1);
  options.exec = ExecFlags(args);
  options.chunk_rows = FlagInt(args, "chunk-rows", 4096);
  if (options.chunk_rows == 0) {
    err << "--chunk-rows must be >= 1\n";
    return 2;
  }
  options.fit_rows = FlagInt(args, "fit-rows", 0);
  auto policy_it = args.flags.find("ood-policy");
  if (policy_it != args.flags.end()) {
    auto policy = stream::ParseOodPolicy(policy_it->second);
    if (!policy.ok()) {
      err << policy.status().ToString() << "\n";
      return 2;
    }
    options.ood_policy = policy.value();
  }
  auto format = FormatFlag(args, "format");
  if (!format.ok()) {
    err << format.status().ToString() << "\n";
    return 2;
  }
  auto reader_or =
      stream::MakeChunkReader(args.positional[0], format.value());
  if (!reader_or.ok()) {
    err << reader_or.status().ToString() << "\n";
    return ExitFor(reader_or.status());
  }
  stream::ChunkReader& reader = *reader_or.value();
  stream::ResumableCsvChunkWriter writer(args.positional[1], {},
                                         args.flags.count("resume") > 0);
  stream::StreamStats stats;
  Result<TransformPlan> plan = TransformPlan();
  auto key_it = args.flags.find("key-in");
  if (key_it != args.flags.end()) {
    auto loaded = LoadPlan(key_it->second);
    if (!loaded.ok()) {
      err << loaded.status().ToString() << "\n";
      return ExitFor(loaded.status());
    }
    plan = stream::StreamingCustodian::ReleaseWithPlan(
        reader, writer, std::move(loaded).value(), options, &stats);
  } else {
    plan = stream::StreamingCustodian::Release(reader, writer, options,
                                               &stats);
  }
  if (!plan.ok()) {
    err << plan.status().ToString() << "\n";
    return ExitFor(plan.status());
  }
  const Status status = SavePlan(plan.value(), args.positional[2]);
  if (!status.ok()) {
    err << status.ToString() << "\n";
    return ExitFor(status);
  }
  out << stats.Render() << "released -> " << args.positional[1]
      << "\nkey written to " << args.positional[2]
      << " (keep it secret; it decodes the mining outcome)\n";
  return 0;
}

int CmdShardRelease(const ParsedArgs& args, std::ostream& out,
                    std::ostream& err) {
  if (args.positional.size() != 3) {
    err << "shard-release needs <in> <out> <key.out>\n";
    return 2;
  }
  auto transform = TransformFlags(args, err);
  if (!transform) return 2;
  shard::ShardOptions options;
  options.transform = *transform;
  options.seed = FlagInt(args, "seed", 1);
  options.exec = ExecFlags(args);
  options.num_shards = FlagInt(args, "shards", 2);
  if (options.num_shards == 0) {
    err << "--shards must be >= 1\n";
    return 2;
  }
  options.chunk_rows = FlagInt(args, "chunk-rows", 4096);
  if (options.chunk_rows == 0) {
    err << "--chunk-rows must be >= 1\n";
    return 2;
  }
  options.resume = args.flags.count("resume") > 0;
  auto mode_it = args.flags.find("workers-mode");
  if (mode_it != args.flags.end()) {
    auto mode = shard::ParseWorkersMode(mode_it->second);
    if (!mode.ok()) {
      err << mode.status().ToString() << "\n";
      return 2;
    }
    options.workers_mode = mode.value();
  }
  options.worker_deadline_ms = FlagInt(args, "worker-deadline", 30000);
  options.max_worker_restarts = FlagInt(args, "max-worker-restarts", 2);
  auto format = FormatFlag(args, "format");
  if (!format.ok()) {
    err << format.status().ToString() << "\n";
    return 2;
  }
  options.format = format.value();
  shard::ShardStats stats;
  auto plan = shard::ShardedCustodian::Release(
      args.positional[0], args.positional[1], options, &stats);
  if (!plan.ok()) {
    err << plan.status().ToString() << "\n";
    return ExitFor(plan.status());
  }
  const Status status = SavePlan(plan.value(), args.positional[2]);
  if (!status.ok()) {
    err << status.ToString() << "\n";
    return ExitFor(status);
  }
  out << stats.Render() << "released -> " << args.positional[1]
      << " (+ " << options.num_shards << " shard file"
      << (options.num_shards == 1 ? "" : "s")
      << ")\nkey written to " << args.positional[2]
      << " (keep it secret; it decodes the mining outcome)\n";
  return 0;
}

int CmdMine(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 2) {
    err << "mine needs <data.csv> <tree.out>\n";
    return 2;
  }
  auto options = TreeFlags(args, err);
  if (!options) return 2;
  auto data = ReadDataset(args, args.positional[0]);
  if (!data.ok()) {
    err << data.status().ToString() << "\n";
    return ExitFor(data.status());
  }
  DecisionTree tree =
      DecisionTreeBuilder(*options, ExecFlags(args)).Build(data.value());
  if (args.flags.count("prune") > 0) {
    tree = PruneTree(tree);
  }
  const Status status = SaveTree(tree, args.positional[1]);
  if (!status.ok()) {
    err << status.ToString() << "\n";
    return ExitFor(status);
  }
  out << "mined tree: " << tree.NumLeaves() << " leaves, depth "
      << tree.Depth() << ", training accuracy "
      << 100.0 * tree.Accuracy(data.value()) << "% -> " << args.positional[1]
      << "\n";
  return 0;
}

int CmdDecode(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 4) {
    err << "decode needs <tree.in> <key> <original.csv> <tree.out>\n";
    return 2;
  }
  auto tree = LoadTree(args.positional[0]);
  if (!tree.ok()) {
    err << tree.status().ToString() << "\n";
    return ExitFor(tree.status());
  }
  auto plan = LoadPlan(args.positional[1]);
  if (!plan.ok()) {
    err << plan.status().ToString() << "\n";
    return ExitFor(plan.status());
  }
  auto original = ReadDataset(args, args.positional[2]);
  if (!original.ok()) {
    err << original.status().ToString() << "\n";
    return ExitFor(original.status());
  }
  const DecisionTree decoded =
      DecodeTreeWithData(tree.value(), plan.value(), original.value());
  const Status status = SaveTree(decoded, args.positional[3]);
  if (!status.ok()) {
    err << status.ToString() << "\n";
    return ExitFor(status);
  }
  out << "decoded tree (" << decoded.NumLeaves() << " leaves) -> "
      << args.positional[3] << "\n"
      << decoded.ToText(original.value().schema());
  return 0;
}

/// `verify <release> --manifest`: integrity-check a sharded release
/// shard by shard against its manifest-of-manifests, in bounded memory.
int CmdVerifyManifest(const ParsedArgs& args, std::ostream& out,
                      std::ostream& err) {
  uint64_t plan_crc = 0;
  const uint64_t* expect_crc = nullptr;
  auto key_it = args.flags.find("key");
  if (key_it != args.flags.end()) {
    auto plan = LoadPlan(key_it->second);
    if (!plan.ok()) {
      err << plan.status().ToString() << "\n";
      return ExitFor(plan.status());
    }
    plan_crc = Crc64(SerializePlan(plan.value()));
    expect_crc = &plan_crc;
  }
  shard::VerifyTotals totals;
  const Status status =
      shard::VerifyShardedRelease(args.positional[0], expect_crc, &totals);
  if (!status.ok()) {
    err << status.ToString() << "\n";
    out << "sharded release: FAILED\n";
    return ExitFor(status);
  }
  out << "sharded release: VERIFIED (" << totals.shards << " shards, "
      << totals.rows << " rows, " << totals.bytes << " bytes"
      << (expect_crc != nullptr ? ", key matches" : "") << ")\n";
  return 0;
}

int CmdVerify(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 1) {
    err << "verify needs <original.csv>\n";
    return 2;
  }
  if (args.flags.count("manifest") > 0) {
    return CmdVerifyManifest(args, out, err);
  }
  auto data = ReadDataset(args, args.positional[0]);
  if (!data.ok()) {
    err << data.status().ToString() << "\n";
    return ExitFor(data.status());
  }
  auto transform = TransformFlags(args, err);
  if (!transform) return 2;
  auto tree = TreeFlags(args, err);
  if (!tree) return 2;
  CustodianOptions options;
  options.seed = FlagInt(args, "seed", 1);
  options.transform = *transform;
  options.tree = *tree;
  options.exec = ExecFlags(args);
  const Custodian custodian(std::move(data).value(), options);
  std::string detail;
  const bool ok = custodian.VerifyNoOutcomeChange(&detail);
  out << "no-outcome-change: " << (ok ? "VERIFIED" : "FAILED") << "\n";
  if (!ok) {
    err << detail << "\n";
  }
  return ok ? 0 : 1;
}

int CmdReport(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 1) {
    err << "report needs <data.csv>\n";
    return 2;
  }
  auto data = ReadDataset(args, args.positional[0]);
  if (!data.ok()) {
    err << data.status().ToString() << "\n";
    return ExitFor(data.status());
  }
  CustodianOptions options;
  options.seed = FlagInt(args, "seed", 1);
  options.exec = ExecFlags(args);
  const Custodian custodian(std::move(data).value(), options);
  ReportOptions report_options;
  report_options.num_trials = FlagInt(args, "trials", 31);
  report_options.seed = options.seed + 1;
  report_options.exec = options.exec;
  out << RenderRiskReport(BuildRiskReport(custodian, report_options));
  return 0;
}

int CmdHarden(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 1) {
    err << "harden needs <data.csv>\n";
    return 2;
  }
  auto data = ReadDataset(args, args.positional[0]);
  if (!data.ok()) {
    err << data.status().ToString() << "\n";
    return ExitFor(data.status());
  }
  HardeningTargets targets;
  targets.max_risk =
      static_cast<double>(FlagInt(args, "max-risk", 25)) / 100.0;
  targets.trials = FlagInt(args, "trials", 21);
  targets.exec = ExecFlags(args);
  const auto decisions = RecommendPerAttributeOptions(
      data.value(), PiecewiseOptions{}, targets, FlagInt(args, "seed", 1));
  out << RenderHardeningDecisions(data.value(), decisions);
  return 0;
}

int CmdConvert(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 2) {
    err << "convert needs <in> <out>\n";
    return 2;
  }
  auto requested = FormatFlag(args, "format");
  if (!requested.ok()) {
    err << requested.status().ToString() << "\n";
    return 2;
  }
  auto source = stream::SniffDatasetFormat(args.positional[0],
                                           requested.value());
  if (!source.ok()) {
    err << source.status().ToString() << "\n";
    return ExitFor(source.status());
  }
  auto target = FormatFlag(args, "to");
  if (!target.ok()) {
    err << target.status().ToString() << "\n";
    return 2;
  }
  // Absent --to flips the format: CSV in -> cols out and vice versa.
  stream::DatasetFormat to = target.value();
  if (to == stream::DatasetFormat::kAuto) {
    to = source.value() == stream::DatasetFormat::kCols
             ? stream::DatasetFormat::kCsv
             : stream::DatasetFormat::kCols;
  }
  auto data = source.value() == stream::DatasetFormat::kCols
                  ? ReadCols(args.positional[0])
                  : ReadCsv(args.positional[0]);
  if (!data.ok()) {
    err << data.status().ToString() << "\n";
    return ExitFor(data.status());
  }
  if (to == stream::DatasetFormat::kCols) {
    ColsStats stats;
    const Status status = WriteCols(data.value(), args.positional[1], &stats);
    if (!status.ok()) {
      err << status.ToString() << "\n";
      return ExitFor(status);
    }
    out << "converted " << stats.num_rows << " rows x "
        << stats.num_attributes << " attributes -> " << args.positional[1]
        << " (popp-cols v1: " << stats.dict_columns << " dict + "
        << stats.raw_columns << " raw columns, " << stats.bytes
        << " bytes)\n";
  } else {
    const Status status = WriteCsv(data.value(), args.positional[1]);
    if (!status.ok()) {
      err << status.ToString() << "\n";
      return ExitFor(status);
    }
    out << "converted " << data.value().NumRows() << " rows x "
        << data.value().NumAttributes() << " attributes -> "
        << args.positional[1] << " (csv)\n";
  }
  return 0;
}

/// Renders the request options line protocol (serve/ops.h vocabulary)
/// from the familiar CLI flags, so a serve-client invocation and the
/// matching one-shot command describe the same fit.
std::string ServeOptionsText(const ParsedArgs& args) {
  std::string text;
  const auto copy = [&](const std::string& flag) {
    auto it = args.flags.find(flag);
    if (it != args.flags.end()) text += flag + " " + it->second + "\n";
  };
  copy("seed");
  copy("policy");
  copy("breakpoints");
  copy("threads");
  copy("trials");
  copy("save");
  copy("deadline-ms");
  if (args.flags.count("anti") > 0) text += "anti\n";
  return text;
}

int CmdServeClient(const ParsedArgs& args, std::ostream& out,
                   std::ostream& err) {
  if (args.positional.size() < 2) {
    err << "serve-client needs <socket> <op> [args] (ops: fit encode "
           "decode verify risk stats health shutdown)\n";
    return 2;
  }
  const std::string& socket_path = args.positional[0];
  auto tag = serve::ParseTag(args.positional[1]);
  if (!tag.ok() || tag.value() == serve::Tag::kReply) {
    err << "serve-client: unknown op '" << args.positional[1]
        << "' (ops: fit encode decode verify risk stats health shutdown)\n";
    return 2;
  }
  // Positional shape per op: op args after <socket> <op>.
  const std::vector<std::string> rest(args.positional.begin() + 2,
                                      args.positional.end());
  size_t want_inputs = 0;   // dataset (+ tree for decode)
  size_t want_outputs = 0;  // client-side artifact paths
  switch (tag.value()) {
    case serve::Tag::kFit:
      want_inputs = 1;
      want_outputs = 1;  // <key.out>
      break;
    case serve::Tag::kEncode:
      want_inputs = 1;
      want_outputs = 1;  // <out.csv>
      break;
    case serve::Tag::kDecode:
      want_inputs = 2;  // <tree.in> <original.csv>
      want_outputs = 1;  // <tree.out>
      break;
    case serve::Tag::kVerify:
    case serve::Tag::kRisk:
      want_inputs = 1;
      break;
    default:
      break;  // stats / health / shutdown take no op args
  }
  if (rest.size() != want_inputs + want_outputs) {
    err << "serve-client " << serve::TagName(tag.value()) << " needs "
        << want_inputs + want_outputs << " argument(s), got " << rest.size()
        << " (see popp help)\n";
    return 2;
  }

  serve::RequestBody request;
  request.options = ServeOptionsText(args);
  std::string output_path;
  if (tag.value() == serve::Tag::kDecode) {
    auto tree_bytes = fault::ReadFileToString(rest[0]);
    if (!tree_bytes.ok()) {
      err << tree_bytes.status().ToString() << "\n";
      return ExitFor(tree_bytes.status());
    }
    request.extra = std::move(tree_bytes).value();
  }
  if (want_inputs > 0) {
    // The dataset file rides the wire verbatim: the daemon sniffs the
    // popp-cols magic, so a binary container keeps its zero-copy path and
    // a CSV parses exactly as the one-shot CLI would have parsed it.
    const std::string& data_path = rest[want_inputs - 1];
    auto data_bytes = fault::ReadFileToString(data_path);
    if (!data_bytes.ok()) {
      err << data_bytes.status().ToString() << "\n";
      return ExitFor(data_bytes.status());
    }
    request.dataset = std::move(data_bytes).value();
  }
  if (want_outputs > 0) output_path = rest.back();

  serve::ServeClient client;
  Status status = client.Connect(socket_path);
  if (!status.ok()) {
    err << status.ToString() << "\n";
    return status.code() == StatusCode::kFailedPrecondition
               ? 2
               : ExitFor(status);
  }
  auto tenant_it = args.flags.find("tenant");
  const std::string tenant =
      tenant_it != args.flags.end() ? tenant_it->second : "default";
  // --retry N retries explicit shed replies (overload / expired deadline)
  // with deterministic backoff; --deadline-ms also bounds the whole retry
  // loop client-side, so a saturated daemon cannot hold the CLI forever.
  serve::RetryOptions retry;
  retry.max_retries = static_cast<size_t>(FlagInt(args, "retry", 0));
  retry.deadline_ms = FlagInt(args, "deadline-ms", 0);
  retry.seed = FlagInt(args, "seed", 1);
  auto reply = client.CallWithRetry(tag.value(), tenant, request, retry);
  if (!reply.ok()) {
    err << reply.status().ToString() << "\n";
    return ExitFor(reply.status());
  }
  if (!reply.value().ok()) {
    err << reply.value().text << "\n";
    return ExitFor(Status(reply.value().code, reply.value().text));
  }

  out << reply.value().text << "\n";
  switch (tag.value()) {
    case serve::Tag::kVerify:
      // The reply text is the verdict; the body carries failure detail.
      if (reply.value().text.find("FAILED") != std::string::npos) {
        err << reply.value().body << "\n";
        return 1;
      }
      return 0;
    case serve::Tag::kRisk:
    case serve::Tag::kStats:
    case serve::Tag::kHealth:
      out << reply.value().body;
      return 0;
    default:
      break;
  }
  if (!output_path.empty()) {
    // Client-side artifacts get the same atomic publication discipline as
    // the daemon's --save path: no partial file under the final name.
    status = fault::WriteFileAtomic(output_path, reply.value().body);
    if (!status.ok()) {
      err << status.ToString() << "\n";
      return ExitFor(status);
    }
    out << "written to " << output_path << "\n";
  }
  return 0;
}

/// A subcommand: its handler and the flags it takes besides --threads.
struct Command {
  int (*run)(const ParsedArgs&, std::ostream&, std::ostream&);
  std::vector<std::string> flags;
};

const std::map<std::string, Command>& Commands() {
  static const auto* commands = new std::map<std::string, Command>{
      {"encode", {CmdEncode, {"seed", "policy", "breakpoints", "anti",
                              "format"}}},
      {"stream-release",
       {CmdStreamRelease, {"seed", "policy", "breakpoints", "anti", "format",
                           "chunk-rows", "ood-policy", "fit-rows", "key-in",
                           "resume"}}},
      {"shard-release",
       {CmdShardRelease, {"seed", "policy", "breakpoints", "anti", "format",
                          "shards", "workers-mode", "chunk-rows", "resume",
                          "worker-deadline", "max-worker-restarts"}}},
      {"mine", {CmdMine, {"criterion", "max-depth", "min-leaf", "prune",
                          "format"}}},
      {"decode", {CmdDecode, {"format"}}},
      {"verify", {CmdVerify, {"seed", "policy", "breakpoints", "anti",
                              "criterion", "max-depth", "min-leaf", "format",
                              "manifest", "key"}}},
      {"report", {CmdReport, {"seed", "trials", "format"}}},
      {"harden", {CmdHarden, {"seed", "trials", "max-risk", "format"}}},
      {"convert", {CmdConvert, {"format", "to"}}},
      {"serve-client",
       {CmdServeClient, {"seed", "policy", "breakpoints", "anti", "tenant",
                         "trials", "save", "deadline-ms", "retry"}}},
  };
  return *commands;
}

}  // namespace

int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err) {
  if (args.empty() || args[0] == "help" || args[0] == "--help") {
    out << kUsage;
    return args.empty() ? 2 : 0;
  }
  const std::string& command = args[0];
  const auto it = Commands().find(command);
  if (it == Commands().end()) {
    err << "unknown command '" << command << "'\n" << kUsage;
    return 2;
  }
  const std::optional<ParsedArgs> parsed =
      Parse(command, std::vector<std::string>(args.begin() + 1, args.end()),
            it->second.flags, err);
  if (!parsed) return 2;
  return it->second.run(*parsed, out, err);
}

}  // namespace popp
