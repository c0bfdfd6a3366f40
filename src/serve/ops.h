#ifndef POPP_SERVE_OPS_H_
#define POPP_SERVE_OPS_H_

#include <string>

#include "resil/deadline.h"
#include "serve/protocol.h"
#include "serve/workspace.h"

/// \file
/// The daemon's request operations: fit, encode, decode, verify and risk
/// (the dataset ops) and stats, all behind DispatchOp.
///
/// Every dataset op shares the same request shape (protocol.h
/// `RequestBody`) and the same option vocabulary, one `key value` per
/// line. An unknown key, or a numeric value that is not whole unsigned
/// decimal text (`seed 3x`, `seed -1`), is refused with kInvalidArgument:
///
///   seed N          encoding seed                      (default 1)
///   policy P        none | bp | maxmp                  (default maxmp)
///   breakpoints W   minimum breakpoint count           (default 20)
///   anti            global-anti-monotone direction
///   threads N       ExecPolicy for this request        (default 1; 0 =
///                   all hardware threads, as in the CLI; either way
///                   capped by the server's max_request_threads)
///   trials N        risk-report trials, >= 1           (risk; default 31)
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

/// Runs one request against the tenant's workspace and returns its reply.
///
/// A dataset op runs one pipeline. Outside the tenant lock it parses the
/// options, decode's tree document (the request's extra section) and the
/// dataset, and refuses the first fault in that order, then a non-finite
/// value some row holds. A popp-cols dataset is opened once as a view:
/// encode keeps the view, every other op materializes its rows. Then the
/// request is abandoned if its deadline has passed; otherwise the op runs
/// under `workspace.mutex()`, counted in `requests_served`, and re-checks
/// the deadline between its phases. Fit, encode and decode look the
/// tenant's plan up once; a miss fits it on the request's rows. That fit
/// and the custodian verify and risk build both refuse a dataset with no
/// rows. Independent tenants run concurrently.
///
/// stats ignores its options and answers under the lock. kShutdown,
/// kHealth and every other tag get an InvalidArgument reply: lifecycle and
/// liveness belong to the server (health must answer even when admission
/// is saturated).
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
