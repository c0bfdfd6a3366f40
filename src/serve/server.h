#ifndef POPP_SERVE_SERVER_H_
#define POPP_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <ostream>
#include <string>

#include "resil/admission.h"
#include "serve/ops.h"
#include "serve/workspace.h"
#include "util/status.h"

/// \file
/// The popp-serve daemon: a persistent multi-tenant custodian service on a
/// Unix domain socket.
///
/// Architecture: the calling thread runs the accept loop; every accepted
/// connection gets its own thread for its lifetime, which runs that
/// connection's request loop — one in-flight request per connection,
/// with parallelism *inside* a request supplied by the request's own
/// ExecPolicy (parallel column encode). An open connection holds nothing
/// but its thread and descriptor, so an idle one never delays another;
/// the admission controller (`num_threads` slots) alone bounds how many
/// requests execute at once. Open connections are bounded only by the
/// process's descriptor limit; running out of descriptors makes the
/// accept loop wait for one to free, never exit.
///
/// Lifecycle contract (the graceful parts the CLI's one-shot model never
/// needed):
///  * SIGTERM/SIGINT (via `InstallSignalHandlers` + `RequestShutdown`) or
///    a kShutdown request drains: the accept loop stops, in-flight
///    requests finish, blocked connection reads abort on the drain flag,
///    the socket file is unlinked, and Serve() returns exit code 0.
///  * Startup refuses a socket path another live daemon is bound to with
///    an actionable `kFailedPrecondition` (CLI exit 2, kUsage) naming the
///    path; a stale socket file whose daemon is gone (connect refused) is
///    reclaimed silently.
///  * A malformed, truncated or CRC-damaged frame poisons only its own
///    connection (error reply when possible, then close); the daemon
///    survives and keeps serving every other connection. Replies are
///    written with MSG_NOSIGNAL, so a peer that disappears mid-reply is
///    an EPIPE on that connection, never a process-killing SIGPIPE; a
///    peer that stops consuming its reply during a drain is aborted
///    within one poll slice, so it cannot block shutdown either.
///
/// Overload contract (resil/admission.h): every op except kShutdown and
/// kHealth passes through a bounded AdmissionController before any work
/// happens. A request that cannot be admitted gets an explicit
/// kUnavailable reply with a "retry-after-ms" hint on the same
/// connection — overload is always answered, never a silent hang — and
/// the connection stays open so the client can retry. `health` bypasses
/// admission entirely: liveness must be observable exactly when the
/// daemon is saturated.

namespace popp::serve {

/// Daemon configuration.
struct ServeOptions {
  std::string socket_path;
  /// Requests executing at once across all tenants: the admission cap
  /// (0 reads as 1). Connections are not counted; each has its own thread.
  size_t num_threads = 4;
  /// Per-tenant LRU capacity of the hot plan cache.
  size_t cache_capacity = 64;
  /// Per-request `threads` option ceiling.
  size_t max_request_threads = 16;
  /// Largest frame a peer may send.
  uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Root directory for request `save` targets (confined per tenant:
  /// <save_dir>/<tenant>/<relative path>). Empty (the default) disables
  /// server-side saves entirely — a socket peer must not get arbitrary
  /// writes with the daemon's filesystem privileges.
  std::string save_dir;
  /// Bounded admission queue; the max_queue+1'th waiter is shed with an
  /// explicit kUnavailable reply instead of queued.
  size_t max_queue = 16;
  /// Per-tenant concurrent-execution cap; 0 disables it.
  size_t per_tenant_inflight = 0;
};

class Server {
 public:
  explicit Server(ServeOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and listens on the socket path (reclaiming a dead socket file,
  /// refusing a live one). After an OK Start the socket exists and
  /// clients may connect.
  Status Start();

  /// Runs the accept loop until shutdown is requested, then drains and
  /// removes the socket. Returns the process exit code (0 on a graceful
  /// shutdown). `log` receives one-line lifecycle messages.
  int Serve(std::ostream& log);

  /// Triggers a graceful drain from any thread (signal handlers and the
  /// kShutdown op call this). Async-signal-safe: one atomic store.
  void RequestShutdown() {
    shutdown_.store(true, std::memory_order_relaxed);
  }

  bool ShutdownRequested() const {
    return shutdown_.load(std::memory_order_relaxed);
  }

  const ServeOptions& options() const { return options_; }

  /// Routes SIGTERM and SIGINT to `server`->RequestShutdown() (pass
  /// nullptr to detach before destroying the server). The handler is a
  /// single relaxed store into the drained-by-poll flag, so it is
  /// async-signal-safe.
  static void InstallSignalHandlers(Server* server);

 private:
  /// One connection's request loop (runs on the connection's own thread).
  /// Its last access to the Server is the `connections_` decrement that
  /// the drain waits for, so the Server outlives every connection thread.
  void HandleConnection(int fd);

  ServeOptions options_;
  OpConfig op_config_;
  WorkspaceRegistry registry_;
  resil::AdmissionController admission_;
  std::atomic<bool> shutdown_{false};
  std::atomic<uint64_t> connections_{0};
  std::atomic<uint64_t> rejected_frames_{0};
  int listen_fd_ = -1;
};

/// Convenience driver for the popp-serve binary and tests: Start (mapping
/// a refused socket onto the CLI usage exit code 2), install signal
/// handlers, Serve, detach handlers. Lifecycle lines go to `out`, errors
/// to `err`.
int RunServer(const ServeOptions& options, std::ostream& out,
              std::ostream& err);

}  // namespace popp::serve

#endif  // POPP_SERVE_SERVER_H_
