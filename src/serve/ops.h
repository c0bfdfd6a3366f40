#ifndef POPP_SERVE_OPS_H_
#define POPP_SERVE_OPS_H_

#include <functional>
#include <map>
#include <string>

#include "resil/deadline.h"
#include "serve/protocol.h"
#include "serve/workspace.h"

/// \file
/// The daemon's request operations, dispatched through a tag-keyed
/// registry (the caffe2 registry.h idiom: a static map from key to
/// factory/handler, so adding an op is one registration and the server's
/// connection loop never grows a switch).
///
/// Every dataset-carrying op shares the same request shape
/// (protocol.h `RequestBody`) and the same option vocabulary, one
/// `key value` per line. An unknown key, or a numeric value that is not
/// whole unsigned decimal text (`seed 3x`, `seed -1`), is refused with
/// kInvalidArgument:
///
///   seed N          encoding seed                      (default 1)
///   policy P        none | bp | maxmp                  (default maxmp)
///   breakpoints W   minimum breakpoint count           (default 20)
///   anti            global-anti-monotone direction
///   threads N       ExecPolicy for this request        (default 1; 0 =
///                   all hardware threads, as in the CLI; either way
///                   capped by the server's max_request_threads)
///   trials N        risk-report trials                 (risk; default 31)
///   deadline-ms N   relative deadline for this request. The server
///                   anchors it at frame receipt against its own steady
///                   clock (client/server clock skew never matters) and
///                   checks it at admission, at dequeue and between op
///                   phases; an expired request is answered with an
///                   explicit kUnavailable reply (CLI exit 6), never
///                   silently hung. 0 means "already expired" — the
///                   canonical shed probe.
///   save PATH       also persist the op's artifact server-side (fit:
///                   the plan key document), atomically via
///                   fault::AtomicFileWriter. PATH must be relative and
///                   is confined to <save_dir>/<tenant>/ ('..' and
///                   absolute paths are refused; without a configured
///                   save_dir the option is refused outright), so a
///                   socket peer never writes outside its own corner
///
/// Determinism contract: a served encode is byte-identical to `popp
/// encode` on the same input at every thread count and in either dataset
/// framing (CSV or popp-cols) — the serve_vs_cli oracle gates it.

namespace popp::serve {

/// Server-side knobs an op consults.
struct OpConfig {
  /// Ceiling on the per-request `threads` option (a tenant cannot demand
  /// unbounded pools; the bytes do not depend on the cap).
  size_t max_request_threads = 16;
  /// Root for request `save` targets; empty disables server-side saves
  /// (see ServeOptions::save_dir).
  std::string save_dir;
};

/// Request-scoped execution context threaded from the server's connection
/// loop into every op phase.
struct RequestContext {
  /// Absolute deadline (anchored at frame receipt); default never expires.
  resil::Deadline deadline;
};

/// One registered operation.
struct OpHandler {
  /// Human name, for diagnostics (= TagName of the registered tag).
  std::string name;
  /// Runs the op against the tenant's workspace. Implementations lock
  /// `workspace.mutex()` themselves around cache access; the registry
  /// wrapper does not serialize, so independent tenants run concurrently.
  /// Implementations re-check `context.deadline` between phases (after
  /// request parse, after the main compute, around server-side saves) and
  /// answer kUnavailable once it expires.
  std::function<ReplyBody(Workspace& workspace, const RequestBody& request,
                          const OpConfig& config,
                          const RequestContext& context)>
      run;
};

/// The tag -> handler registry (fit, encode, decode, verify, risk, stats).
/// kShutdown and kHealth are intentionally absent: lifecycle and liveness
/// belong to the server (health must answer even when admission is
/// saturated).
const std::map<Tag, OpHandler>& OpRegistry();

/// Dispatches one request frame body. Unknown tags produce an
/// InvalidArgument reply; a handler's reply is returned as-is.
ReplyBody DispatchOp(Tag tag, Workspace& workspace, const RequestBody& request,
                     const OpConfig& config,
                     const RequestContext& context = RequestContext{});

/// Pre-admission peek at a request's "deadline-ms" option (the full parse
/// happens later, inside the op, after admission): returns the relative
/// deadline in ms, or UINT64_MAX when the request carries none or a
/// malformed one (which the op's parse then refuses).
uint64_t ExtractDeadlineMs(const std::string& options_text);

}  // namespace popp::serve

#endif  // POPP_SERVE_OPS_H_
