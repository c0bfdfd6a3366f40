#include "serve/ops.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
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
      auto policy = ParseBreakpointPolicy(value);
      if (!policy.ok()) return policy.status();
      options.transform.policy = policy.value();
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
      // Checked only: the server anchors the deadline at frame receipt
      // (ExtractDeadlineMs) and threads it in via RequestContext.
      if (!numeric) return not_a_number();
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

/// Phase-boundary deadline check: kUnavailable once the deadline has
/// passed, so the op does no more work. `phase` names the boundary for the
/// diagnostic ("after parsing the request", "after the encode", ...).
Status CheckDeadline(const RequestContext& context, const char* phase) {
  if (!context.deadline.Expired()) return Status::Ok();
  return Status::Unavailable(
      std::string("deadline exceeded ") + phase +
      "; the request was abandoned at this phase boundary");
}

/// One dataset request, parsed outside the tenant lock.
struct OpRequest {
  OpOptions options;
  DecisionTree tree;             ///< decode's mined tree
  std::optional<ColsView> cols;  ///< a popp-cols dataset, as its view
  std::optional<Dataset> data;   ///< the rows, once materialized

  const Schema& schema() const {
    return cols ? cols->schema() : data->schema();
  }
  size_t num_rows() const { return cols ? cols->num_rows() : data->NumRows(); }
  /// The rows; a popp-cols view is materialized on first use, once.
  const Dataset& Rows() {
    if (!data) data = cols->MaterializeRows(0, cols->num_rows());
    return *data;
  }
};

/// Parses a dataset request. Faults are refused in the order options,
/// decode's tree, dataset bytes, non-finite values.
Result<OpRequest> ParseRequest(Tag tag, const RequestBody& body,
                               const OpConfig& config) {
  OpRequest request;
  auto options = ParseOptions(body.options, config);
  if (!options.ok()) return options.status();
  request.options = std::move(options).value();
  if (tag == Tag::kDecode) {
    if (body.extra.empty()) {
      return Status::InvalidArgument(
          "decode needs the mined tree document in the request's extra "
          "section");
    }
    auto tree = ParseTree(body.extra);
    if (!tree.ok()) return tree.status();
    request.tree = std::move(tree).value();
  }
  if (body.dataset.empty()) {
    return Status::InvalidArgument("request carries no dataset bytes");
  }
  // A popp-cols dataset (sniffed by its magic) is validated in place;
  // encode keeps the view and maps it without building a Dataset, every
  // other op materializes the rows here. Anything else is CSV.
  if (LooksLikeCols(body.dataset)) {
    auto view = ColsView::Open(body.dataset);
    if (!view.ok()) return view.status();
    request.cols = std::move(view).value();
    if (tag != Tag::kEncode) request.Rows();
  } else {
    auto data = ParseCsv(body.dataset);
    if (!data.ok()) return data.status();
    request.data = std::move(data).value();
  }
  // Only finite values can be fitted or encoded. A kept view whose stored
  // values are all finite needs no row check; otherwise its rows are
  // checked, since a non-finite value that only an unused dictionary entry
  // holds is never mapped.
  if (request.data || !request.cols->AllFinite()) {
    POPP_RETURN_IF_ERROR(CheckFiniteValues(request.Rows()));
  }
  return request;
}

/// A fit needs rows: no plan can be fitted on an empty dataset.
Status CheckRowsToFit(const OpRequest& request) {
  if (request.num_rows() > 0) return Status::Ok();
  return Status::InvalidArgument(
      "request dataset has no data rows to fit on");
}

/// The tenant's plan for the request's (schema, seed, policy): looked up
/// once, and on a miss fitted on the request's rows and cached. The plan
/// cache's one fit point; runs under the workspace lock. The bool reports
/// whether the plan was served hot.
Result<std::pair<const CachedPlan*, bool>> GetOrFitPlan(Workspace& workspace,
                                                        OpRequest& request) {
  const OpOptions& options = request.options;
  const PlanKey key =
      PlanKey::Make(request.schema(), options.seed, options.transform);
  if (const CachedPlan* hit = workspace.cache().Lookup(key)) {
    return std::pair{hit, true};
  }
  POPP_RETURN_IF_ERROR(CheckRowsToFit(request));
  if (request.schema().NumAttributes() == 0) {
    return Status::InvalidArgument(
        "request dataset has no attributes to fit a plan on");
  }
  // The exact CLI fitting sequence: a fresh Rng seeded with the request
  // seed, consumed only by plan creation — byte-identical to `popp
  // encode --seed N` at every thread count.
  Rng rng(options.seed);
  CachedPlan cached;
  cached.plan = TransformPlan::Create(request.Rows(), options.transform, rng,
                                      options.exec);
  cached.compiled = CompiledPlan::Compile(cached.plan);
  return std::pair{workspace.cache().Insert(key, std::move(cached)), false};
}

/// The custodian a verify or risk request runs. It takes the request's
/// rows and fits its own plan on them, outside the plan cache.
Result<std::unique_ptr<Custodian>> MakeCustodian(OpRequest& request) {
  POPP_RETURN_IF_ERROR(CheckRowsToFit(request));
  CustodianOptions options;
  options.seed = request.options.seed;
  options.transform = request.options.transform;
  options.exec = request.options.exec;
  return std::make_unique<Custodian>(std::move(*request.data), options);
}

Result<ReplyBody> Fit(Workspace& workspace, OpRequest& request,
                      const OpConfig& config, const RequestContext& context) {
  const auto plan = GetOrFitPlan(workspace, request);
  if (!plan.ok()) return plan.status();
  const auto [cached, hot] = plan.value();
  const std::string document = SerializePlan(cached->plan);
  POPP_RETURN_IF_ERROR(CheckDeadline(context, "after fitting the plan"));
  const OpOptions& options = request.options;
  if (!options.save_path.empty()) {
    auto target = ResolveSavePath(config, workspace.name(), options.save_path);
    if (!target.ok()) return target.status();
    // Artifact persistence goes through the hardened atomic writer
    // (SavePlan stages in <path>.tmp and renames), so a daemon killed
    // mid-save never leaves a partial key under the final name.
    POPP_RETURN_IF_ERROR(SavePlan(cached->plan, target.value()));
    // A save that out-waited the deadline still produced a complete,
    // atomic artifact — but the client has moved on: tell it so.
    POPP_RETURN_IF_ERROR(CheckDeadline(context, "after the server-side save"));
  }
  const PlanKey key =
      PlanKey::Make(request.schema(), options.seed, options.transform);
  return ReplyBody::Ok(std::string(hot ? "cached" : "fitted") + " plan " +
                           key.Render() + " (" +
                           std::to_string(request.schema().NumAttributes()) +
                           " attributes)",
                       document);
}

/// The reply mirrors the request framing: a popp-cols request gets the
/// popp-cols container of the release, a CSV request the byte-identical
/// CSV that `popp encode` would write. Each attribute's transform is a
/// function of the value alone, so a popp-cols release needs only the
/// image of each dictionary entry some row uses and the same row codes,
/// re-ranked; a plan-cache hit builds no Dataset.
Result<ReplyBody> Encode(Workspace& workspace, OpRequest& request,
                         const OpConfig&, const RequestContext& context) {
  const auto plan = GetOrFitPlan(workspace, request);
  if (!plan.ok()) return plan.status();
  const auto [cached, hot] = plan.value();
  POPP_RETURN_IF_ERROR(CheckDeadline(context, "after the plan fit"));
  const CompiledPlan& compiled = cached->compiled;
  const ExecPolicy& exec = request.options.exec;
  const auto text = [&](size_t rows, size_t attributes, const char* framing) {
    return "encoded " + std::to_string(rows) + " rows x " +
           std::to_string(attributes) + " attributes (" +
           (hot ? "hot" : "cold") + " plan, " + framing + " reply)";
  };
  if (request.cols) {
    const ColsView& view = *request.cols;
    std::string released = view.SerializeMapped(
        [&](size_t attr, const AttrValue* in, AttrValue* out, size_t n) {
          compiled.EncodeColumn(attr, in, out, n, exec);
        });
    POPP_RETURN_IF_ERROR(CheckDeadline(context, "after the encode"));
    return ReplyBody::Ok(
        text(view.num_rows(), view.num_attributes(), "cols"),
        std::move(released));
  }
  const Dataset released = compiled.EncodeDataset(*request.data, exec);
  POPP_RETURN_IF_ERROR(CheckDeadline(context, "after the encode"));
  return ReplyBody::Ok(
      text(released.NumRows(), released.NumAttributes(), "csv"),
      ToCsvString(released));
}

Result<ReplyBody> Decode(Workspace& workspace, OpRequest& request,
                         const OpConfig&, const RequestContext& context) {
  const auto plan = GetOrFitPlan(workspace, request);
  if (!plan.ok()) return plan.status();
  const auto [cached, hot] = plan.value();
  auto decoded =
      TryDecodeTreeWithData(request.tree, cached->plan, request.Rows());
  if (!decoded.ok()) return decoded.status();
  POPP_RETURN_IF_ERROR(CheckDeadline(context, "after the decode"));
  return ReplyBody::Ok("decoded tree (" +
                           std::to_string(decoded.value().NumLeaves()) +
                           " leaves, " + (hot ? "hot" : "cold") + " plan)",
                       SerializeTree(decoded.value()));
}

Result<ReplyBody> Verify(Workspace&, OpRequest& request, const OpConfig&,
                         const RequestContext& context) {
  auto custodian = MakeCustodian(request);
  if (!custodian.ok()) return custodian.status();
  std::string detail;
  const bool ok = custodian.value()->VerifyNoOutcomeChange(&detail);
  POPP_RETURN_IF_ERROR(CheckDeadline(context, "after the verification"));
  return ReplyBody::Ok(ok ? "no-outcome-change: VERIFIED"
                          : "no-outcome-change: FAILED",
                       detail);
}

Result<ReplyBody> Risk(Workspace&, OpRequest& request, const OpConfig&,
                       const RequestContext& context) {
  auto custodian = MakeCustodian(request);
  if (!custodian.ok()) return custodian.status();
  ReportOptions report_options;
  report_options.num_trials = request.options.trials;
  report_options.seed = request.options.seed + 1;  // the CLI's discipline
  report_options.exec = request.options.exec;
  std::string report =
      RenderRiskReport(BuildRiskReport(*custodian.value(), report_options));
  POPP_RETURN_IF_ERROR(CheckDeadline(context, "after the risk report"));
  return ReplyBody::Ok(
      "risk report (" + std::to_string(report_options.num_trials) +
          " trials)",
      std::move(report));
}

}  // namespace

ReplyBody DispatchOp(Tag tag, Workspace& workspace, const RequestBody& body,
                     const OpConfig& config, const RequestContext& context) {
  using Op = Result<ReplyBody> (*)(Workspace&, OpRequest&, const OpConfig&,
                                   const RequestContext&);
  Op op = nullptr;
  switch (tag) {
    case Tag::kFit:
      op = Fit;
      break;
    case Tag::kEncode:
      op = Encode;
      break;
    case Tag::kDecode:
      op = Decode;
      break;
    case Tag::kVerify:
      op = Verify;
      break;
    case Tag::kRisk:
      op = Risk;
      break;
    case Tag::kStats: {
      // Cheap enough that a deadline check would only cost a reply the
      // client already paid for.
      std::lock_guard<std::mutex> lock(workspace.mutex());
      ++workspace.requests_served;
      return ReplyBody::Ok("stats for tenant '" + workspace.name() + "'",
                           workspace.RenderStats());
    }
    default:
      return ReplyBody::Error(Status::InvalidArgument(
          "request tag " + std::to_string(static_cast<int>(tag)) +
          " is not a registered operation"));
  }
  auto request = ParseRequest(tag, body, config);
  if (!request.ok()) return ReplyBody::Error(request.status());
  const Status late = CheckDeadline(context, "after parsing the request");
  if (!late.ok()) return ReplyBody::Error(late);
  std::lock_guard<std::mutex> lock(workspace.mutex());
  ++workspace.requests_served;
  auto reply = op(workspace, request.value(), config, context);
  if (!reply.ok()) return ReplyBody::Error(reply.status());
  return std::move(reply).value();
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
