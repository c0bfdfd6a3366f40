#ifndef POPP_SERVE_CLIENT_H_
#define POPP_SERVE_CLIENT_H_

#include <cstdint>
#include <string>

#include "resil/retry.h"
#include "serve/protocol.h"
#include "util/status.h"

/// \file
/// Client side of the popp-serve protocol: connect to a daemon's Unix
/// socket, issue requests, read replies. One Call is one round trip; the
/// connection stays open across calls (the daemon serves one in-flight
/// request per connection, so sequential calls reuse the hot path without
/// re-connecting). Used by the `popp serve-client` CLI subcommand, the
/// serve tests, the serve_vs_cli oracle and perfbench's serve_mix
/// workload.
///
/// `CallWithRetry` layers the overload contract on top of Call: a shed
/// reply (kUnavailable) is retried on the same connection after the
/// larger of the server's "retry-after-ms" hint and the deterministic
/// backoff schedule (resil::RetryPolicy), bounded by both an attempt
/// budget and the client-side deadline. Every other reply — success or
/// any other error — returns immediately; retrying a non-overload error
/// would just repeat it.

namespace popp::serve {

/// Client-side retry/deadline knobs (`popp serve-client --retry
/// --deadline-ms`).
struct RetryOptions {
  /// Additional attempts after the first (0 = no retry, the default).
  size_t max_retries = 0;
  /// Overall client-side deadline for the whole retry loop in ms; 0 means
  /// unbounded. Also forwarded to the server as the request's
  /// "deadline-ms" option by the CLI (the option text, not this struct,
  /// is what travels).
  uint64_t deadline_ms = 0;
  /// Backoff schedule between attempts; deterministic in `seed`.
  resil::BackoffOptions backoff;
  uint64_t seed = 1;
};

/// Parses a "retry-after-ms N" hint out of a shed reply's text; returns 0
/// when the reply carries none or N is not a whole unsigned decimal
/// (`ParseDecimalU64`).
uint64_t ParseRetryAfterMs(const std::string& reply_text);

class ServeClient {
 public:
  ServeClient() = default;
  ~ServeClient();

  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  /// Connects to a daemon. A missing socket file is `kNotFound`; a
  /// refused connection (stale socket, daemon gone) is
  /// `kFailedPrecondition` — both name the path.
  Status Connect(const std::string& socket_path);
  bool connected() const { return fd_ >= 0; }

  /// One request/reply round trip. Transport or framing failures are the
  /// Status; an operation-level failure arrives as an OK Result whose
  /// ReplyBody carries the server's StatusCode and diagnostic.
  Result<ReplyBody> Call(Tag tag, const std::string& tenant,
                         const RequestBody& request);

  /// Call, retrying explicit shed replies (kUnavailable) up to
  /// `retry.max_retries` additional attempts. The wait before attempt k is
  /// max(server retry-after-ms hint, RetryPolicy::DelayMs(k)), clipped to
  /// the remaining client deadline; when the deadline cannot fit another
  /// wait+attempt the last shed reply is returned as-is (the caller sees
  /// the server's own diagnostic, exit 6 in the CLI). Transport errors are
  /// never retried — the connection state is unknown.
  Result<ReplyBody> CallWithRetry(Tag tag, const std::string& tenant,
                                  const RequestBody& request,
                                  const RetryOptions& retry);

  void Close();

 private:
  int fd_ = -1;
};

}  // namespace popp::serve

#endif  // POPP_SERVE_CLIENT_H_
