#include "core/cli.h"

#include <algorithm>
#include <cstdint>
#include <map>
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
#include "tree/criterion.h"
#include "tree/prune.h"
#include "tree/serialize.h"
#include "util/crc64.h"
#include "util/flags.h"

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
    "         [--key-in key [--ood-policy reject|clamp|extend-piece]]\n"
    "         [--seed N] [--policy none|bp|maxmp] [--breakpoints W] [--anti]\n"
    "         [--resume]\n"
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
    "  input yields the same release as popp-cols.\n"
    "\n"
    "every command also accepts --threads N (default 1 = serial; 0 = all\n"
    "hardware threads). Results are bit-identical for every N.\n"
    "every dataset input accepts --format csv|cols|auto (default auto:\n"
    "sniff the 'poppcols' magic). popp-cols is the binary columnar\n"
    "container; convert translates between the two, defaulting --to to\n"
    "the opposite of the input's format. Release output is byte-identical\n"
    "whichever format the input arrives in.\n"
    "Flags are written --name value or --name=value and are checked\n"
    "before any file is opened: a flag the command does not take, a\n"
    "choice it does not know (--policy, --criterion, --format, --to,\n"
    "--ood-policy, --workers-mode), a numeric value that is not a whole\n"
    "unsigned decimal (--seed 3x, --seed -1), a count (--trials, --shards,\n"
    "--chunk-rows) of 0 or a --max-risk outside 1-100 is a usage error\n"
    "naming the flag. Attribute values must be finite: an inf or nan cell\n"
    "fails the command, naming its row and attribute.\n"
    "\n"
    "stream-release fits on every row, or encodes under a saved --key-in\n"
    "key; --ood-policy, which needs --key-in, decides values the key was\n"
    "not fitted on (outside its domain, or unseen inside a bijective\n"
    "piece). It journals progress in <out.csv>.manifest and stages bytes\n"
    "in <out.csv>.partial; --resume continues an interrupted run\n"
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

/// Reports a command's runtime failure: prints `text`, the failure's
/// rendered Status, to `err` and returns the exit code of `code` in the
/// taxonomy above. In the CLI, kFailedPrecondition only means popp-serve
/// refused the connection.
int Fail(StatusCode code, std::string_view text, std::ostream& err) {
  err << text << "\n";
  switch (code) {
    case StatusCode::kFailedPrecondition:
      return 2;
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

int Fail(const Status& status, std::ostream& err) {
  return Fail(status.code(), status.ToString(), err);
}

/// A choice flag's check for ParseFlags: the library's own parse function.
template <auto Parse>
Status Check(std::string_view value) {
  return Parse(std::string(value)).status();
}

/// A choice flag's value (ParseFlags has checked it), or `fallback`.
template <auto Parse, typename T>
T Choice(const ParsedFlags& args, const std::string& name, T fallback) {
  return args.Has(name) ? Parse(args.Text(name)).value() : fallback;
}

stream::DatasetFormat FormatFlag(const ParsedFlags& args,
                                 const std::string& name = "format") {
  return Choice<stream::ParseDatasetFormat>(args, name,
                                            stream::DatasetFormat::kAuto);
}

ExecPolicy ExecFlags(const ParsedFlags& args) {
  return ExecPolicy{static_cast<size_t>(args.Number("threads", 1))};
}

PiecewiseOptions TransformFlags(const ParsedFlags& args) {
  PiecewiseOptions options;
  options.policy =
      Choice<ParseBreakpointPolicy>(args, "policy", options.policy);
  options.min_breakpoints = args.Number("breakpoints", 20);
  options.global_anti_monotone = args.Has("anti");
  return options;
}

BuildOptions TreeFlags(const ParsedFlags& args) {
  BuildOptions options;
  options.criterion =
      Choice<ParseSplitCriterion>(args, "criterion", options.criterion);
  options.max_depth = args.Number("max-depth", options.max_depth);
  options.min_leaf_size = args.Number("min-leaf", options.min_leaf_size);
  return options;
}

/// Loads a whole dataset honoring the command's --format flag (auto-sniffs
/// by default, so existing CSV invocations keep working unchanged), and
/// refuses a dataset with no rows or with non-finite values.
Result<Dataset> ReadDataset(const ParsedFlags& args, const std::string& path) {
  auto format = stream::SniffDatasetFormat(path, FormatFlag(args));
  if (!format.ok()) return format.status();
  Result<Dataset> data = format.value() == stream::DatasetFormat::kCols
                             ? ReadCols(path)
                             : ReadCsv(path);
  if (!data.ok()) return data;
  if (data.value().NumRows() == 0) {
    return Status::InvalidArgument("'" + path + "' has no data rows");
  }
  POPP_RETURN_IF_ERROR(CheckFiniteValues(data.value()));
  return data;
}

int CmdEncode(const ParsedFlags& args, std::ostream& out, std::ostream& err) {
  auto data = ReadDataset(args, args.positional[0]);
  if (!data.ok()) return Fail(data.status(), err);
  if (data.value().NumAttributes() == 0) {
    return Fail(Status::InvalidArgument("'" + args.positional[0] +
                                        "' has no attributes to encode"),
                err);
  }
  Rng rng(args.Number("seed", 1));
  const TransformPlan plan = TransformPlan::Create(
      data.value(), TransformFlags(args), rng, ExecFlags(args));
  const Dataset released =
      CompiledPlan::Compile(plan).EncodeDataset(data.value(), ExecFlags(args));
  Status status = WriteCsv(released, args.positional[1]);
  if (status.ok()) status = SavePlan(plan, args.positional[2]);
  if (!status.ok()) return Fail(status, err);
  out << "encoded " << released.NumRows() << " rows x "
      << released.NumAttributes() << " attributes -> " << args.positional[1]
      << "\nkey written to " << args.positional[2]
      << " (keep it secret; it decodes the mining outcome)\n";
  return 0;
}

int CmdStreamRelease(const ParsedFlags& args, std::ostream& out,
                     std::ostream& err) {
  if (args.Has("ood-policy") && !args.Has("key-in")) {
    err << "--ood-policy needs --key-in: without a key the release fits "
           "on every row, so no value is out of domain\n";
    return 2;
  }
  stream::StreamOptions options;
  options.transform = TransformFlags(args);
  options.seed = args.Number("seed", 1);
  options.exec = ExecFlags(args);
  options.chunk_rows = args.Number("chunk-rows", 4096);
  options.ood_policy = Choice<stream::ParseOodPolicy>(args, "ood-policy",
                                                      options.ood_policy);
  auto reader = stream::MakeChunkReader(args.positional[0], FormatFlag(args));
  if (!reader.ok()) return Fail(reader.status(), err);
  stream::ResumableCsvChunkWriter writer(args.positional[1], {},
                                         args.Has("resume"));
  stream::StreamStats stats;
  Result<TransformPlan> plan = TransformPlan();
  if (args.Has("key-in")) {
    auto loaded = LoadPlan(args.Text("key-in"));
    if (!loaded.ok()) return Fail(loaded.status(), err);
    plan = stream::StreamingCustodian::ReleaseWithPlan(
        *reader.value(), writer, std::move(loaded).value(), options, &stats);
  } else {
    plan = stream::StreamingCustodian::Release(*reader.value(), writer,
                                               options, &stats);
  }
  Status status = plan.status();
  if (status.ok()) status = SavePlan(plan.value(), args.positional[2]);
  if (!status.ok()) return Fail(status, err);
  out << stats.Render() << "released -> " << args.positional[1]
      << "\nkey written to " << args.positional[2]
      << " (keep it secret; it decodes the mining outcome)\n";
  return 0;
}

int CmdShardRelease(const ParsedFlags& args, std::ostream& out,
                    std::ostream& err) {
  shard::ShardOptions options;
  options.transform = TransformFlags(args);
  options.seed = args.Number("seed", 1);
  options.exec = ExecFlags(args);
  options.num_shards = args.Number("shards", 2);
  options.chunk_rows = args.Number("chunk-rows", 4096);
  options.resume = args.Has("resume");
  options.workers_mode = Choice<shard::ParseWorkersMode>(
      args, "workers-mode", options.workers_mode);
  options.worker_deadline_ms = args.Number("worker-deadline", 30000);
  options.max_worker_restarts = args.Number("max-worker-restarts", 2);
  options.format = FormatFlag(args);
  shard::ShardStats stats;
  auto plan = shard::ShardedCustodian::Release(
      args.positional[0], args.positional[1], options, &stats);
  Status status = plan.status();
  if (status.ok()) status = SavePlan(plan.value(), args.positional[2]);
  if (!status.ok()) return Fail(status, err);
  out << stats.Render() << "released -> " << args.positional[1]
      << " (+ " << options.num_shards << " shard file"
      << (options.num_shards == 1 ? "" : "s")
      << ")\nkey written to " << args.positional[2]
      << " (keep it secret; it decodes the mining outcome)\n";
  return 0;
}

int CmdMine(const ParsedFlags& args, std::ostream& out, std::ostream& err) {
  auto data = ReadDataset(args, args.positional[0]);
  if (!data.ok()) return Fail(data.status(), err);
  DecisionTree tree =
      DecisionTreeBuilder(TreeFlags(args), ExecFlags(args)).Build(data.value());
  if (args.Has("prune")) tree = PruneTree(tree);
  const Status status = SaveTree(tree, args.positional[1]);
  if (!status.ok()) return Fail(status, err);
  out << "mined tree: " << tree.NumLeaves() << " leaves, depth "
      << tree.Depth() << ", training accuracy "
      << 100.0 * tree.Accuracy(data.value()) << "% -> " << args.positional[1]
      << "\n";
  return 0;
}

int CmdDecode(const ParsedFlags& args, std::ostream& out, std::ostream& err) {
  auto tree = LoadTree(args.positional[0]);
  if (!tree.ok()) return Fail(tree.status(), err);
  auto plan = LoadPlan(args.positional[1]);
  if (!plan.ok()) return Fail(plan.status(), err);
  auto original = ReadDataset(args, args.positional[2]);
  if (!original.ok()) return Fail(original.status(), err);
  auto decoded =
      TryDecodeTreeWithData(tree.value(), plan.value(), original.value());
  Status status = decoded.status();
  if (status.ok()) status = SaveTree(decoded.value(), args.positional[3]);
  if (!status.ok()) return Fail(status, err);
  out << "decoded tree (" << decoded.value().NumLeaves() << " leaves) -> "
      << args.positional[3] << "\n"
      << decoded.value().ToText(original.value().schema());
  return 0;
}

/// `verify <release> --manifest`: integrity-check a sharded release
/// shard by shard against its manifest-of-manifests, in bounded memory.
int CmdVerifyManifest(const ParsedFlags& args, std::ostream& out,
                      std::ostream& err) {
  uint64_t plan_crc = 0;
  const uint64_t* expect_crc = nullptr;
  if (args.Has("key")) {
    auto plan = LoadPlan(args.Text("key"));
    if (!plan.ok()) return Fail(plan.status(), err);
    plan_crc = Crc64(SerializePlan(plan.value()));
    expect_crc = &plan_crc;
  }
  shard::VerifyTotals totals;
  const Status status =
      shard::VerifyShardedRelease(args.positional[0], expect_crc, &totals);
  if (!status.ok()) {
    out << "sharded release: FAILED\n";
    return Fail(status, err);
  }
  out << "sharded release: VERIFIED (" << totals.shards << " shards, "
      << totals.rows << " rows, " << totals.bytes << " bytes"
      << (expect_crc != nullptr ? ", key matches" : "") << ")\n";
  return 0;
}

int CmdVerify(const ParsedFlags& args, std::ostream& out, std::ostream& err) {
  if (args.Has("manifest")) return CmdVerifyManifest(args, out, err);
  auto data = ReadDataset(args, args.positional[0]);
  if (!data.ok()) return Fail(data.status(), err);
  CustodianOptions options;
  options.seed = args.Number("seed", 1);
  options.transform = TransformFlags(args);
  options.tree = TreeFlags(args);
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

int CmdReport(const ParsedFlags& args, std::ostream& out, std::ostream& err) {
  auto data = ReadDataset(args, args.positional[0]);
  if (!data.ok()) return Fail(data.status(), err);
  CustodianOptions options;
  options.seed = args.Number("seed", 1);
  options.exec = ExecFlags(args);
  const Custodian custodian(std::move(data).value(), options);
  ReportOptions report_options;
  report_options.num_trials = args.Number("trials", 31);
  report_options.seed = options.seed + 1;
  report_options.exec = options.exec;
  out << RenderRiskReport(BuildRiskReport(custodian, report_options));
  return 0;
}

int CmdHarden(const ParsedFlags& args, std::ostream& out, std::ostream& err) {
  auto data = ReadDataset(args, args.positional[0]);
  if (!data.ok()) return Fail(data.status(), err);
  HardeningTargets targets;
  targets.max_risk = static_cast<double>(args.Number("max-risk", 25)) / 100.0;
  targets.trials = args.Number("trials", 21);
  targets.exec = ExecFlags(args);
  const auto decisions = RecommendPerAttributeOptions(
      data.value(), PiecewiseOptions{}, targets, args.Number("seed", 1));
  out << RenderHardeningDecisions(data.value(), decisions);
  return 0;
}

int CmdConvert(const ParsedFlags& args, std::ostream& out, std::ostream& err) {
  auto source = stream::SniffDatasetFormat(args.positional[0],
                                           FormatFlag(args));
  if (!source.ok()) return Fail(source.status(), err);
  const bool from_cols = source.value() == stream::DatasetFormat::kCols;
  // Absent --to flips the format: CSV in -> cols out and vice versa.
  stream::DatasetFormat to = FormatFlag(args, "to");
  if (to == stream::DatasetFormat::kAuto) {
    to = from_cols ? stream::DatasetFormat::kCsv : stream::DatasetFormat::kCols;
  }
  auto data =
      from_cols ? ReadCols(args.positional[0]) : ReadCsv(args.positional[0]);
  if (!data.ok()) return Fail(data.status(), err);
  if (to == stream::DatasetFormat::kCols) {
    ColsStats stats;
    const Status status = WriteCols(data.value(), args.positional[1], &stats);
    if (!status.ok()) return Fail(status, err);
    out << "converted " << stats.num_rows << " rows x "
        << stats.num_attributes << " attributes -> " << args.positional[1]
        << " (popp-cols v1: " << stats.dict_columns << " dict + "
        << stats.raw_columns << " raw columns, " << stats.bytes
        << " bytes)\n";
  } else {
    const Status status = WriteCsv(data.value(), args.positional[1]);
    if (!status.ok()) return Fail(status, err);
    out << "converted " << data.value().NumRows() << " rows x "
        << data.value().NumAttributes() << " attributes -> "
        << args.positional[1] << " (csv)\n";
  }
  return 0;
}

/// Renders the request options line protocol (serve/ops.h vocabulary)
/// from the familiar CLI flags, so a serve-client invocation and the
/// matching one-shot command describe the same fit.
std::string ServeOptionsText(const ParsedFlags& args) {
  std::string text;
  for (const char* flag : {"seed", "policy", "breakpoints", "threads",
                           "trials", "save", "deadline-ms"}) {
    if (args.Has(flag)) text += flag + (" " + args.Text(flag)) + "\n";
  }
  if (args.Has("anti")) text += "anti\n";
  return text;
}

int CmdServeClient(const ParsedFlags& args, std::ostream& out,
                   std::ostream& err) {
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
  if (tag.value() == serve::Tag::kDecode) {
    auto tree_bytes = fault::ReadFileToString(rest[0]);
    if (!tree_bytes.ok()) return Fail(tree_bytes.status(), err);
    request.extra = std::move(tree_bytes).value();
  }
  if (want_inputs > 0) {
    // The dataset file rides the wire verbatim: the daemon sniffs the
    // popp-cols magic, so a binary container keeps its zero-copy path and
    // a CSV parses exactly as the one-shot CLI would have parsed it.
    auto data_bytes = fault::ReadFileToString(rest[want_inputs - 1]);
    if (!data_bytes.ok()) return Fail(data_bytes.status(), err);
    request.dataset = std::move(data_bytes).value();
  }

  serve::ServeClient client;
  Status status = client.Connect(socket_path);
  if (!status.ok()) return Fail(status, err);
  // --retry N retries explicit shed replies (overload / expired deadline)
  // with deterministic backoff; --deadline-ms also bounds the whole retry
  // loop client-side, so a saturated daemon cannot hold the CLI forever.
  serve::RetryOptions retry;
  retry.max_retries = static_cast<size_t>(args.Number("retry", 0));
  retry.deadline_ms = args.Number("deadline-ms", 0);
  retry.seed = args.Number("seed", 1);
  auto reply = client.CallWithRetry(
      tag.value(), args.Text("tenant", "default"), request, retry);
  if (!reply.ok()) return Fail(reply.status(), err);
  if (!reply.value().ok()) {
    // The daemon's reply text is its rendered Status.
    return Fail(reply.value().code, reply.value().text, err);
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
  if (want_outputs > 0) {
    // Client-side artifacts get the same atomic publication discipline as
    // the daemon's --save path: no partial file under the final name.
    status = fault::WriteFileAtomic(rest.back(), reply.value().body);
    if (!status.ok()) return Fail(status, err);
    out << "written to " << rest.back() << "\n";
  }
  return 0;
}

/// A subcommand: its handler, its positional arguments (one <name> each;
/// a trailing [args] admits any number more) and the flags it takes
/// besides --threads.
struct Command {
  int (*run)(const ParsedFlags&, std::ostream&, std::ostream&);
  std::string operands;
  std::vector<FlagRule> flags;
};

const std::map<std::string, Command>& Commands() {
  static const auto* commands = [] {
    const FlagRule seed = NumberFlag("seed"), anti = SwitchFlag("anti"),
                   breakpoints = NumberFlag("breakpoints"),
                   policy = TextFlag("policy", Check<ParseBreakpointPolicy>),
                   format = TextFlag("format",
                                     Check<stream::ParseDatasetFormat>),
                   criterion = TextFlag("criterion",
                                        Check<ParseSplitCriterion>),
                   max_depth = NumberFlag("max-depth"),
                   min_leaf = NumberFlag("min-leaf"),
                   chunk_rows = NumberFlag("chunk-rows", 1),
                   trials = NumberFlag("trials", 1),
                   resume = SwitchFlag("resume");
    return new std::map<std::string, Command>{
        {"encode",
         {CmdEncode, "<in.csv> <out.csv> <key.out>",
          {seed, policy, breakpoints, anti, format}}},
        {"stream-release",
         {CmdStreamRelease, "<in.csv> <out.csv> <key.out>",
          {seed, policy, breakpoints, anti, format, chunk_rows,
           TextFlag("ood-policy", Check<stream::ParseOodPolicy>),
           TextFlag("key-in"), resume}}},
        {"shard-release",
         {CmdShardRelease, "<in> <out> <key.out>",
          {seed, policy, breakpoints, anti, format, NumberFlag("shards", 1),
           TextFlag("workers-mode", Check<shard::ParseWorkersMode>),
           chunk_rows, resume, NumberFlag("worker-deadline"),
           NumberFlag("max-worker-restarts")}}},
        {"mine",
         {CmdMine, "<data.csv> <tree.out>",
          {criterion, max_depth, min_leaf, SwitchFlag("prune"), format}}},
        {"decode",
         {CmdDecode, "<tree.in> <key> <original.csv> <tree.out>", {format}}},
        {"verify",
         {CmdVerify, "<original.csv>",
          {seed, policy, breakpoints, anti, criterion, max_depth, min_leaf,
           format, SwitchFlag("manifest"), TextFlag("key")}}},
        {"report", {CmdReport, "<data.csv>", {seed, trials, format}}},
        {"harden",
         {CmdHarden, "<data.csv>",
          {seed, trials, NumberFlag("max-risk", 1, 100), format}}},
        {"convert",
         {CmdConvert, "<in> <out>",
          {format, TextFlag("to", Check<stream::ParseDatasetFormat>)}}},
        // The daemon checks the options it is sent and replies with its
        // own refusal, so serve-client checks only the decimal rule.
        {"serve-client",
         {CmdServeClient,
          "<socket> <op> [args] (ops: fit encode decode verify risk stats "
          "health shutdown)",
          {seed, TextFlag("policy"), breakpoints, anti, TextFlag("tenant"),
           NumberFlag("trials"), TextFlag("save"), NumberFlag("deadline-ms"),
           NumberFlag("retry")}}},
    };
  }();
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
  std::vector<FlagRule> rules = it->second.flags;
  rules.push_back(NumberFlag("threads"));
  const auto parsed =
      ParseFlags(std::vector<std::string>(args.begin() + 1, args.end()),
                 rules, "popp help");
  if (!parsed.ok()) {
    err << "popp " << command << ": " << parsed.status().message() << "\n";
    return 2;
  }
  const std::string& operands = it->second.operands;
  const size_t want = std::count(operands.begin(), operands.end(), '<');
  const size_t got = parsed.value().positional.size();
  if (got < want ||
      (got > want && operands.find("[args]") == std::string::npos)) {
    err << command << " needs " << operands << "\n";
    return 2;
  }
  return it->second.run(parsed.value(), out, err);
}

}  // namespace popp
