// popp-serve: the persistent multi-tenant custodian daemon. Listens on a
// Unix domain socket, keeps fitted plans hot in per-tenant LRU caches,
// and serves fit/encode/decode/verify/risk/stats/shutdown requests over
// the length-prefixed binary protocol (src/serve/). Drive it with
// `popp serve-client`.

#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "serve/server.h"
#include "util/flags.h"

namespace {

constexpr const char* kUsage = R"(usage: popp-serve <socket-path> [options]

Starts the custodian daemon on a Unix domain socket. Plans are fitted
once per (schema fingerprint, seed, policy) and kept hot in a per-tenant
LRU, so a warm encode is one compiled-kernel pass instead of a refit.
Requests are issued with `popp serve-client <socket-path> <op> ...`.

options (each also written --name=value):
  --threads N           requests executing at once     (default 4);
                        every connection has its own thread, so open
                        connections do not count against N
  --cache-capacity N    per-tenant hot-plan LRU size   (default 64)
  --max-request-threads N
                        ceiling on a request's ExecPolicy (default 16)
  --save-dir DIR        root for request `save` targets; clients name a
                        relative path, confined to DIR/<tenant>/.
                        Without this flag server-side saves are refused
                        (a socket peer gets no filesystem writes).
  --max-queue N         admission queue bound; the next waiter is shed
                        with an explicit overloaded reply (default 16)
  --tenant-cap N        per-tenant concurrent-execution cap
                        (default 0 = off)
  --help                this text

lifecycle: SIGTERM/SIGINT drain in-flight requests, remove the socket
file and exit 0. Starting on a socket another live daemon is bound to
fails with exit 2; a stale socket file (its daemon is gone) is reclaimed.

exit codes: 0 graceful shutdown, 1 runtime failure, 2 usage error
(including a live socket), 3 socket/I-O error.
)";

popp::Status NeedsDirectory(std::string_view dir) {
  return dir.empty() ? popp::Status::InvalidArgument("needs a directory path")
                     : popp::Status::Ok();
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  for (const std::string& arg : args) {
    if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      return 0;
    }
  }
  const auto parsed = popp::ParseFlags(
      args,
      {popp::NumberFlag("threads", 1), popp::NumberFlag("cache-capacity", 1),
       popp::NumberFlag("max-request-threads", 1),
       popp::TextFlag("save-dir", NeedsDirectory),
       popp::NumberFlag("max-queue"), popp::NumberFlag("tenant-cap")},
      "popp-serve --help");
  if (!parsed.ok()) {
    std::cerr << "popp-serve: " << parsed.status().message() << "\n";
    return 2;
  }
  const popp::ParsedFlags& flags = parsed.value();
  // One socket path; a lone "-x" is a mistyped option, not a path.
  if (flags.positional.size() != 1 || flags.positional[0].rfind('-', 0) == 0) {
    std::cerr << kUsage;
    return 2;
  }
  popp::serve::ServeOptions options;
  options.socket_path = flags.positional[0];
  options.num_threads = flags.Number("threads", options.num_threads);
  options.cache_capacity =
      flags.Number("cache-capacity", options.cache_capacity);
  options.max_request_threads =
      flags.Number("max-request-threads", options.max_request_threads);
  options.save_dir = flags.Text("save-dir");
  options.max_queue = flags.Number("max-queue", options.max_queue);
  options.per_tenant_inflight =
      flags.Number("tenant-cap", options.per_tenant_inflight);
  return popp::serve::RunServer(options, std::cout, std::cerr);
}
