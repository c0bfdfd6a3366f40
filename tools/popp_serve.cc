// popp-serve: the persistent multi-tenant custodian daemon. Listens on a
// Unix domain socket, keeps fitted plans hot in per-tenant LRU caches,
// and serves fit/encode/decode/verify/risk/stats/shutdown requests over
// the length-prefixed binary protocol (src/serve/). Drive it with
// `popp serve-client`.

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "serve/server.h"
#include "util/decimal.h"

namespace {

constexpr const char* kUsage = R"(usage: popp-serve <socket-path> [options]

Starts the custodian daemon on a Unix domain socket. Plans are fitted
once per (schema fingerprint, seed, policy) and kept hot in a per-tenant
LRU, so a warm encode is one compiled-kernel pass instead of a refit.
Requests are issued with `popp serve-client <socket-path> <op> ...`.

options:
  --threads N           connection worker threads      (default 4)
  --cache-capacity N    per-tenant hot-plan LRU size   (default 64)
  --max-request-threads N
                        ceiling on a request's ExecPolicy (default 16)
  --save-dir DIR        root for request `save` targets; clients name a
                        relative path, confined to DIR/<tenant>/.
                        Without this flag server-side saves are refused
                        (a socket peer gets no filesystem writes).
  --max-inflight N      concurrent-execution cap across all tenants
                        (default 0 = match --threads)
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

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  popp::serve::ServeOptions options;

  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const auto value = [&]() -> const std::string* {
      return i + 1 < args.size() ? &args[++i] : nullptr;
    };
    if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      return 0;
    } else if (arg == "--threads") {
      const std::string* v = value();
      if (!v || !popp::ParseDecimalU64(*v, &options.num_threads) ||
          options.num_threads == 0) {
        std::cerr << "popp-serve: --threads needs a positive integer\n";
        return 2;
      }
    } else if (arg == "--cache-capacity") {
      const std::string* v = value();
      if (!v || !popp::ParseDecimalU64(*v, &options.cache_capacity) ||
          options.cache_capacity == 0) {
        std::cerr << "popp-serve: --cache-capacity needs a positive "
                     "integer\n";
        return 2;
      }
    } else if (arg == "--max-request-threads") {
      const std::string* v = value();
      if (!v || !popp::ParseDecimalU64(*v, &options.max_request_threads) ||
          options.max_request_threads == 0) {
        std::cerr << "popp-serve: --max-request-threads needs a positive "
                     "integer\n";
        return 2;
      }
    } else if (arg == "--max-inflight") {
      const std::string* v = value();
      if (!v || !popp::ParseDecimalU64(*v, &options.max_inflight)) {
        std::cerr << "popp-serve: --max-inflight needs an integer "
                     "(0 = match --threads)\n";
        return 2;
      }
    } else if (arg == "--max-queue") {
      const std::string* v = value();
      if (!v || !popp::ParseDecimalU64(*v, &options.max_queue)) {
        std::cerr << "popp-serve: --max-queue needs an integer\n";
        return 2;
      }
    } else if (arg == "--tenant-cap") {
      const std::string* v = value();
      if (!v || !popp::ParseDecimalU64(*v, &options.per_tenant_inflight)) {
        std::cerr << "popp-serve: --tenant-cap needs an integer (0 = off)\n";
        return 2;
      }
    } else if (arg == "--save-dir") {
      const std::string* v = value();
      if (!v || v->empty()) {
        std::cerr << "popp-serve: --save-dir needs a directory path\n";
        return 2;
      }
      options.save_dir = *v;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "popp-serve: unknown option '" << arg << "'\n" << kUsage;
      return 2;
    } else if (options.socket_path.empty()) {
      options.socket_path = arg;
    } else {
      std::cerr << "popp-serve: unexpected argument '" << arg << "'\n"
                << kUsage;
      return 2;
    }
  }
  if (options.socket_path.empty()) {
    std::cerr << kUsage;
    return 2;
  }
  return popp::serve::RunServer(options, std::cout, std::cerr);
}
