#include "serve/ops.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <optional>
#include <sstream>
#include <utility>

#include "core/custodian.h"
#include "core/report.h"
#include "data/cols.h"
#include "data/csv.h"
#include "parallel/exec_policy.h"
#include "transform/serialize.h"
#include "transform/tree_decode.h"
#include "tree/serialize.h"
#include "util/decimal.h"
#include "util/rng.h"

namespace popp::serve {
namespace {

/// The parsed option surface shared by every op (see ops.h).
struct OpOptions {
  PiecewiseOptions transform;
  uint64_t seed = 1;
  ExecPolicy exec;
  size_t trials = 31;
  std::string save_path;
  /// Parsed for validation only: the server anchors the deadline at frame
  /// receipt (ExtractDeadlineMs) and threads it in via RequestContext.
  uint64_t deadline_ms = UINT64_MAX;
};

Result<OpOptions> ParseOptions(const std::string& text,
                               const OpConfig& config) {
  OpOptions options;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const size_t space = line.find(' ');
    const std::string key = line.substr(0, space);
    const std::string value =
        space == std::string::npos ? "" : line.substr(space + 1);
    // Numeric options take whole unsigned decimal text, like CLI flags.
    uint64_t number = 0;
    const bool numeric = ParseDecimalU64(value, &number);
    const auto not_a_number = [&] {
      return Status::InvalidArgument("request option '" + key +
                                     "' needs an unsigned decimal integer, "
                                     "got '" + value + "'");
    };
    if (key == "seed") {
      if (!numeric) return not_a_number();
      options.seed = number;
    } else if (key == "policy") {
      if (value == "none") {
        options.transform.policy = BreakpointPolicy::kNone;
      } else if (value == "bp") {
        options.transform.policy = BreakpointPolicy::kChooseBP;
      } else if (value == "maxmp") {
        options.transform.policy = BreakpointPolicy::kChooseMaxMP;
      } else {
        return Status::InvalidArgument("unknown policy '" + value + "'");
      }
    } else if (key == "breakpoints") {
      if (!numeric) return not_a_number();
      options.transform.min_breakpoints = number;
    } else if (key == "anti") {
      options.transform.global_anti_monotone = true;
    } else if (key == "threads") {
      if (!numeric) return not_a_number();
      // 0 keeps the CLI's documented meaning — all hardware threads —
      // and then the serve-side ceiling applies exactly as it does to an
      // explicit count. The released bytes do not depend on the choice.
      const uint64_t resolved =
          number == 0 ? ExecPolicy::Hardware().ResolvedThreads() : number;
      options.exec.num_threads = static_cast<size_t>(
          std::min<uint64_t>(resolved, config.max_request_threads));
    } else if (key == "trials") {
      if (!numeric) return not_a_number();
      if (number == 0) {
        return Status::InvalidArgument(
            "request option 'trials' must be >= 1, got 0");
      }
      options.trials = number;
    } else if (key == "save") {
      options.save_path = value;
    } else if (key == "deadline-ms") {
      if (!numeric) return not_a_number();
      options.deadline_ms = number;
    } else {
      return Status::InvalidArgument("unknown request option '" + key + "'");
    }
  }
  return options;
}

/// Resolves a client-supplied `save` target inside the daemon's save
/// root. The client may only name a relative path, which is confined to
/// <save_dir>/<tenant>/ — the tenants are mutually distrustful, so a
/// socket peer must be able to clobber neither another tenant's saved
/// artifacts nor anything else the daemon's user can write.
Result<std::string> ResolveSavePath(const OpConfig& config,
                                    const std::string& tenant,
                                    const std::string& requested) {
  if (config.save_dir.empty()) {
    return Status::InvalidArgument(
        "server-side save is disabled: this daemon was started without "
        "--save-dir, so requests may not name filesystem paths");
  }
  const auto component_ok = [](std::string_view c) {
    return !c.empty() && c != "." && c != ".." &&
           c.find('\0') == std::string_view::npos;
  };
  if (!component_ok(tenant) || tenant.find('/') != std::string::npos) {
    return Status::InvalidArgument(
        "tenant '" + tenant +
        "' cannot own a save directory (a saving tenant needs a non-empty "
        "name that is not '.', '..' or slash-separated)");
  }
  if (requested.empty() || requested.front() == '/') {
    return Status::InvalidArgument(
        "save target '" + requested +
        "' must be relative: server-side saves are confined to the "
        "daemon's --save-dir, per tenant");
  }
  for (size_t begin = 0; begin <= requested.size();) {
    size_t end = requested.find('/', begin);
    if (end == std::string::npos) end = requested.size();
    if (!component_ok(std::string_view(requested).substr(begin,
                                                         end - begin))) {
      return Status::InvalidArgument(
          "save target '" + requested +
          "' may not contain empty, '.' or '..' components");
    }
    begin = end + 1;
  }
  const std::filesystem::path full =
      std::filesystem::path(config.save_dir) / tenant / requested;
  std::error_code ec;
  std::filesystem::create_directories(full.parent_path(), ec);
  if (ec) {
    return Status::IoError("cannot create save directory '" +
                           full.parent_path().string() +
                           "': " + ec.message());
  }
  return full.string();
}

/// Phase-boundary deadline check: a non-null return is the kUnavailable
/// reply to send instead of doing any more work. `phase` names the
/// boundary for the diagnostic ("after parse", "before save", ...).
std::optional<ReplyBody> DeadlineReply(const RequestContext& context,
                                       const char* phase) {
  if (!context.deadline.Expired()) return std::nullopt;
  return ReplyBody::Error(Status::Unavailable(
      std::string("deadline exceeded ") + phase +
      "; the request was abandoned at this phase boundary"));
}

/// Parses the request's dataset bytes, sniffing the popp-cols magic so the
/// binary container takes the zero-copy validation path and anything else
/// goes through the incremental CSV tokenizer, and refuses non-finite
/// values.
Result<Dataset> ParseRequestDataset(const std::string& bytes) {
  if (bytes.empty()) {
    return Status::InvalidArgument("request carries no dataset bytes");
  }
  Result<Dataset> data = LooksLikeCols(bytes) ? ParseCols(bytes)
                                              : ParseCsv(bytes);
  if (data.ok()) POPP_RETURN_IF_ERROR(CheckFiniteValues(data.value()));
  return data;
}

/// Fetches the tenant's plan for (schema, seed, policy), fitting it on
/// `rows()` and caching it on a miss; `rows` is called only on a miss.
/// Must be called under the workspace lock. The bool reports whether the
/// plan was served hot.
template <typename Rows>
std::pair<const CachedPlan*, bool> GetOrFitPlan(Workspace& workspace,
                                                const Schema& schema,
                                                const Rows& rows,
                                                const OpOptions& options) {
  const PlanKey key = PlanKey::Make(schema, options.seed, options.transform);
  if (const CachedPlan* hit = workspace.cache().Lookup(key)) {
    return {hit, true};
  }
  // The exact CLI fitting sequence: a fresh Rng seeded with the request
  // seed, consumed only by plan creation — byte-identical to `popp
  // encode --seed N` at every thread count.
  Rng rng(options.seed);
  CachedPlan cached;
  cached.plan =
      TransformPlan::Create(rows(), options.transform, rng, options.exec);
  cached.compiled = CompiledPlan::Compile(cached.plan);
  return {workspace.cache().Insert(key, std::move(cached)), false};
}

/// GetOrFitPlan for a parsed request dataset.
std::pair<const CachedPlan*, bool> GetOrFitPlan(Workspace& workspace,
                                                const Dataset& data,
                                                const OpOptions& options) {
  return GetOrFitPlan(
      workspace, data.schema(), [&]() -> const Dataset& { return data; },
      options);
}

/// The encode reply text; `framing` is "csv" or "cols".
std::string EncodedText(size_t rows, size_t attributes, bool hot,
                        const char* framing) {
  return "encoded " + std::to_string(rows) + " rows x " +
         std::to_string(attributes) + " attributes (" +
         (hot ? "hot" : "cold") + " plan, " + framing + " reply)";
}

/// Encodes a popp-cols request from its validated view. A plan-cache hit
/// builds no Dataset; a miss materializes the rows once, for the fit.
ReplyBody EncodeColsView(Workspace& workspace, const ColsView& view,
                         const OpOptions& options,
                         const RequestContext& context) {
  if (auto late = DeadlineReply(context, "after parsing the request")) {
    return *late;
  }
  std::lock_guard<std::mutex> lock(workspace.mutex());
  ++workspace.requests_served;
  const auto [cached, hot] = GetOrFitPlan(
      workspace, view.schema(),
      [&] { return view.MaterializeRows(0, view.num_rows()); }, options);
  if (auto late = DeadlineReply(context, "after the plan fit")) {
    return *late;
  }
  const CompiledPlan& compiled = cached->compiled;
  std::string released = view.SerializeMapped(
      [&](size_t attr, const AttrValue* in, AttrValue* out, size_t n) {
        compiled.EncodeColumn(attr, in, out, n, options.exec);
      });
  if (auto late = DeadlineReply(context, "after the encode")) {
    return *late;
  }
  return ReplyBody::Ok(
      EncodedText(view.num_rows(), view.num_attributes(), hot, "cols"),
      std::move(released));
}

ReplyBody OpFit(Workspace& workspace, const RequestBody& request,
                const OpConfig& config, const RequestContext& context) {
  auto options = ParseOptions(request.options, config);
  if (!options.ok()) return ReplyBody::Error(options.status());
  auto data = ParseRequestDataset(request.dataset);
  if (!data.ok()) return ReplyBody::Error(data.status());
  if (auto late = DeadlineReply(context, "after parsing the request")) {
    return *late;
  }

  std::lock_guard<std::mutex> lock(workspace.mutex());
  ++workspace.requests_served;
  const auto [cached, hot] = GetOrFitPlan(workspace, data.value(),
                                          options.value());
  const std::string document = SerializePlan(cached->plan);
  if (auto late = DeadlineReply(context, "after fitting the plan")) {
    return *late;
  }
  if (!options.value().save_path.empty()) {
    auto target = ResolveSavePath(config, workspace.name(),
                                  options.value().save_path);
    if (!target.ok()) return ReplyBody::Error(target.status());
    // Artifact persistence goes through the hardened atomic writer
    // (SavePlan stages in <path>.tmp and renames), so a daemon killed
    // mid-save never leaves a partial key under the final name.
    const Status saved = SavePlan(cached->plan, target.value());
    if (!saved.ok()) return ReplyBody::Error(saved);
    // A save that out-waited the deadline still produced a complete,
    // atomic artifact — but the client has moved on: tell it so.
    if (auto late = DeadlineReply(context, "after the server-side save")) {
      return *late;
    }
  }
  const PlanKey key = PlanKey::Make(data.value().schema(),
                                    options.value().seed,
                                    options.value().transform);
  return ReplyBody::Ok(
      std::string(hot ? "cached" : "fitted") + " plan " + key.Render() +
          " (" + std::to_string(data.value().NumAttributes()) +
          " attributes)",
      document);
}

ReplyBody OpEncode(Workspace& workspace, const RequestBody& request,
                   const OpConfig& config, const RequestContext& context) {
  auto options = ParseOptions(request.options, config);
  if (!options.ok()) return ReplyBody::Error(options.status());
  // The reply mirrors the request framing: a popp-cols request gets the
  // popp-cols container of the release, a CSV request the byte-identical
  // CSV that `popp encode` would write. Each attribute's transform is a
  // function of the value alone, so a popp-cols release needs only the
  // image of each dictionary entry some row uses and the same row codes,
  // re-ranked.
  if (LooksLikeCols(request.dataset)) {
    auto view = ColsView::Open(request.dataset);
    if (!view.ok()) return ReplyBody::Error(view.status());
    // A non-finite value some row uses is refused in the words of the
    // parse every other op runs; one held only by an unused dictionary
    // entry is never mapped, so the request is encoded.
    if (!view.value().AllFinite()) {
      auto refused = ParseRequestDataset(request.dataset);
      if (!refused.ok()) return ReplyBody::Error(refused.status());
    }
    return EncodeColsView(workspace, view.value(), options.value(), context);
  }
  auto data = ParseRequestDataset(request.dataset);
  if (!data.ok()) return ReplyBody::Error(data.status());
  if (auto late = DeadlineReply(context, "after parsing the request")) {
    return *late;
  }

  std::lock_guard<std::mutex> lock(workspace.mutex());
  ++workspace.requests_served;
  const auto [cached, hot] = GetOrFitPlan(workspace, data.value(),
                                          options.value());
  if (auto late = DeadlineReply(context, "after the plan fit")) {
    return *late;
  }
  const Dataset released =
      cached->compiled.EncodeDataset(data.value(), options.value().exec);
  if (auto late = DeadlineReply(context, "after the encode")) {
    return *late;
  }
  return ReplyBody::Ok(EncodedText(released.NumRows(),
                                   released.NumAttributes(), hot, "csv"),
                       ToCsvString(released));
}

ReplyBody OpDecode(Workspace& workspace, const RequestBody& request,
                   const OpConfig& config, const RequestContext& context) {
  auto options = ParseOptions(request.options, config);
  if (!options.ok()) return ReplyBody::Error(options.status());
  if (request.extra.empty()) {
    return ReplyBody::Error(Status::InvalidArgument(
        "decode needs the mined tree document in the request's extra "
        "section"));
  }
  auto tree = ParseTree(request.extra);
  if (!tree.ok()) return ReplyBody::Error(tree.status());
  auto data = ParseRequestDataset(request.dataset);
  if (!data.ok()) return ReplyBody::Error(data.status());
  if (auto late = DeadlineReply(context, "after parsing the request")) {
    return *late;
  }

  std::lock_guard<std::mutex> lock(workspace.mutex());
  ++workspace.requests_served;
  const auto [cached, hot] = GetOrFitPlan(workspace, data.value(),
                                          options.value());
  auto decoded =
      TryDecodeTreeWithData(tree.value(), cached->plan, data.value());
  if (!decoded.ok()) return ReplyBody::Error(decoded.status());
  if (auto late = DeadlineReply(context, "after the decode")) {
    return *late;
  }
  return ReplyBody::Ok("decoded tree (" +
                           std::to_string(decoded.value().NumLeaves()) +
                           " leaves, " + (hot ? "hot" : "cold") + " plan)",
                       SerializeTree(decoded.value()));
}

ReplyBody OpVerify(Workspace& workspace, const RequestBody& request,
                   const OpConfig& config, const RequestContext& context) {
  auto options = ParseOptions(request.options, config);
  if (!options.ok()) return ReplyBody::Error(options.status());
  auto data = ParseRequestDataset(request.dataset);
  if (!data.ok()) return ReplyBody::Error(data.status());
  if (auto late = DeadlineReply(context, "after parsing the request")) {
    return *late;
  }

  std::lock_guard<std::mutex> lock(workspace.mutex());
  ++workspace.requests_served;
  CustodianOptions custodian_options;
  custodian_options.seed = options.value().seed;
  custodian_options.transform = options.value().transform;
  custodian_options.exec = options.value().exec;
  const Custodian custodian(std::move(data).value(), custodian_options);
  std::string detail;
  const bool ok = custodian.VerifyNoOutcomeChange(&detail);
  if (auto late = DeadlineReply(context, "after the verification")) {
    return *late;
  }
  return ReplyBody::Ok(ok ? "no-outcome-change: VERIFIED"
                          : "no-outcome-change: FAILED",
                       detail);
}

ReplyBody OpRisk(Workspace& workspace, const RequestBody& request,
                 const OpConfig& config, const RequestContext& context) {
  auto options = ParseOptions(request.options, config);
  if (!options.ok()) return ReplyBody::Error(options.status());
  auto data = ParseRequestDataset(request.dataset);
  if (!data.ok()) return ReplyBody::Error(data.status());
  if (auto late = DeadlineReply(context, "after parsing the request")) {
    return *late;
  }

  std::lock_guard<std::mutex> lock(workspace.mutex());
  ++workspace.requests_served;
  CustodianOptions custodian_options;
  custodian_options.seed = options.value().seed;
  custodian_options.transform = options.value().transform;
  custodian_options.exec = options.value().exec;
  const Custodian custodian(std::move(data).value(), custodian_options);
  ReportOptions report_options;
  report_options.num_trials = options.value().trials;
  report_options.seed = custodian_options.seed + 1;  // the CLI's discipline
  report_options.exec = custodian_options.exec;
  std::string report =
      RenderRiskReport(BuildRiskReport(custodian, report_options));
  if (auto late = DeadlineReply(context, "after the risk report")) {
    return *late;
  }
  return ReplyBody::Ok(
      "risk report (" + std::to_string(report_options.num_trials) +
          " trials)",
      std::move(report));
}

ReplyBody OpStats(Workspace& workspace, const RequestBody& request,
                  const OpConfig& config, const RequestContext& context) {
  (void)request;
  (void)config;
  (void)context;  // stats is cheap enough that a deadline check would only
                  // cost a reply the client already paid for
  std::lock_guard<std::mutex> lock(workspace.mutex());
  ++workspace.requests_served;
  return ReplyBody::Ok("stats for tenant '" + workspace.name() + "'",
                       workspace.RenderStats());
}

}  // namespace

const std::map<Tag, OpHandler>& OpRegistry() {
  static const std::map<Tag, OpHandler>* registry = [] {
    auto* m = new std::map<Tag, OpHandler>;
    (*m)[Tag::kFit] = {TagName(Tag::kFit), OpFit};
    (*m)[Tag::kEncode] = {TagName(Tag::kEncode), OpEncode};
    (*m)[Tag::kDecode] = {TagName(Tag::kDecode), OpDecode};
    (*m)[Tag::kVerify] = {TagName(Tag::kVerify), OpVerify};
    (*m)[Tag::kRisk] = {TagName(Tag::kRisk), OpRisk};
    (*m)[Tag::kStats] = {TagName(Tag::kStats), OpStats};
    return m;
  }();
  return *registry;
}

ReplyBody DispatchOp(Tag tag, Workspace& workspace, const RequestBody& request,
                     const OpConfig& config, const RequestContext& context) {
  const auto it = OpRegistry().find(tag);
  if (it == OpRegistry().end()) {
    return ReplyBody::Error(Status::InvalidArgument(
        "request tag " + std::to_string(static_cast<int>(tag)) +
        " is not a registered operation"));
  }
  return it->second.run(workspace, request, config, context);
}

uint64_t ExtractDeadlineMs(const std::string& options_text) {
  // A line-oriented peek, not a full parse: admission must not reject a
  // request the op itself would have diagnosed better.
  size_t pos = 0;
  while (pos < options_text.size()) {
    size_t end = options_text.find('\n', pos);
    if (end == std::string::npos) end = options_text.size();
    const std::string_view line(options_text.data() + pos, end - pos);
    constexpr std::string_view kKey = "deadline-ms ";
    uint64_t parsed = 0;
    if (line.substr(0, kKey.size()) == kKey &&
        ParseDecimalU64(line.substr(kKey.size()), &parsed)) {
      return parsed;
    }
    pos = end + 1;
  }
  return UINT64_MAX;
}

}  // namespace popp::serve
