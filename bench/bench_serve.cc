// Experiment S1 — serving throughput: popp-serve vs process-per-request.
//
// The one-shot CLI pays a full plan fit on every encode; popp-serve fits
// once and answers warm requests with a single compiled-kernel pass over
// the hot plan. This benchmark starts an in-process daemon on a scratch
// Unix socket, measures warm-cache encode round trips (QPS, p50/p99
// latency) in both CSV and popp-cols request framing (replies mirror the
// request framing), and compares against the per-request baseline — the
// parse + fit + encode + render work `popp encode` repeats per
// invocation, which lower-bounds a real process-per-request loop
// (fork/exec and file I/O come on top). Every daemon reply is
// checksum-verified against the library encode, so the benchmark doubles
// as a byte-identity check at benchmark scale. The acceptance bar for the
// full-size run is warm-cache QPS >= 5x the baseline. Emits
// BENCH_serve.json next to the printed table.
//
// Environment: POPP_ROWS sets the dataset size (CI smoke-runs small),
// POPP_TRIALS scales the request counts, POPP_SEED the encoding seed.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "data/cols.h"
#include "data/csv.h"
#include "experiment_common.h"
#include "parallel/exec_policy.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "transform/compiled.h"
#include "transform/plan.h"
#include "util/table.h"

namespace popp::bench {
namespace {

/// One measured request series: QPS plus latency quantiles.
struct Series {
  size_t requests = 0;
  double wall = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  bool checksums_ok = true;

  double qps() const { return wall > 0 ? requests / wall : 0.0; }
};

Series Summarize(std::vector<double>& latencies, bool checksums_ok) {
  Series series;
  series.requests = latencies.size();
  for (double s : latencies) series.wall += s;
  std::sort(latencies.begin(), latencies.end());
  const auto quantile = [&](double q) {
    const size_t i = static_cast<size_t>(q * (latencies.size() - 1));
    return 1e3 * latencies[i];
  };
  series.p50_ms = quantile(0.50);
  series.p99_ms = quantile(0.99);
  series.checksums_ok = checksums_ok;
  return series;
}

int Run() {
  const ExperimentEnv env = GetEnv();
  PrintBanner("popp-serve warm-cache throughput", env);

  Rng data_rng(env.seed);
  const Dataset generated =
      GenerateCovtypeLike(DefaultCovtypeSpec(env.rows), data_rng);
  // The canonical dataset is what CSV request framing parses to; both
  // framings and the expected bytes must be derived from it.
  auto canonical = ParseCsv(ToCsvString(generated));
  if (!canonical.ok()) {
    std::fprintf(stderr, "canonical re-parse failed: %s\n",
                 canonical.status().ToString().c_str());
    return 1;
  }
  const Dataset& data = canonical.value();
  const std::string csv_bytes = ToCsvString(data);
  const std::string cols_bytes = SerializeCols(data);

  const PiecewiseOptions transform;  // the CLI's default policy
  const auto fit_once = [&](const Dataset& fit_data) {
    Rng rng(env.seed);
    return TransformPlan::Create(fit_data, transform, rng, ExecPolicy{1});
  };
  const Dataset expected_release =
      CompiledPlan::Compile(fit_once(data)).EncodeDataset(data,
                                                          ExecPolicy{1});
  // Replies mirror the request framing, so each framing has its own
  // expected bytes: the CLI's CSV for CSV requests, the same release as
  // popp-cols for cols requests.
  const uint64_t expected_checksum[2] = {
      Fnv1a(ToCsvString(expected_release)),
      Fnv1a(SerializeCols(expected_release))};

  // ---- baseline: what the one-shot CLI repeats per request -----------
  // Parse the input CSV, fit the plan, encode, render the release — the
  // work `popp encode` redoes on every invocation. Process spawn and
  // file I/O come on top in a real process-per-request loop, so this
  // baseline is a lower bound on its cost (conservative for the daemon).
  const size_t baseline_requests =
      std::max<size_t>(3, std::min<size_t>(env.trials, 15));
  std::vector<double> baseline_lat;
  baseline_lat.reserve(baseline_requests);
  bool baseline_ok = true;
  for (size_t r = 0; r < baseline_requests; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    auto parsed = ParseCsv(csv_bytes);
    baseline_ok = baseline_ok && parsed.ok();
    if (!parsed.ok()) break;
    const TransformPlan plan = fit_once(parsed.value());
    const std::string released =
        ToCsvString(CompiledPlan::Compile(plan).EncodeDataset(
            parsed.value(), ExecPolicy{1}));
    baseline_lat.push_back(Seconds(t0));
    baseline_ok = baseline_ok && Fnv1a(released) == expected_checksum[0];
  }
  Series baseline = Summarize(baseline_lat, baseline_ok);

  // ---- the daemon ----------------------------------------------------
  serve::ServeOptions serve_options;
  serve_options.socket_path =
      (std::filesystem::temp_directory_path() /
       ("popp_bench_serve_" + std::to_string(::getpid()) + ".sock"))
          .string();
  serve_options.num_threads = 2;
  serve::Server server(serve_options);
  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "daemon start failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  std::ostringstream server_log;
  int serve_exit = -1;
  std::thread server_thread(
      [&] { serve_exit = server.Serve(server_log); });

  serve::ServeClient client;
  if (!client.Connect(serve_options.socket_path).ok()) {
    server.RequestShutdown();
    server_thread.join();
    std::fprintf(stderr, "cannot connect to the daemon\n");
    return 1;
  }
  const std::string options_text =
      "seed " + std::to_string(env.seed) + "\n";
  const auto one_request = [&](const std::string& dataset_bytes,
                               uint64_t want_checksum, bool* checksum_ok) {
    serve::RequestBody request;
    request.options = options_text;
    request.dataset = dataset_bytes;
    const auto t0 = std::chrono::steady_clock::now();
    auto reply = client.Call(serve::Tag::kEncode, "bench", request);
    const double wall = Seconds(t0);
    *checksum_ok = *checksum_ok && reply.ok() && reply.value().ok() &&
                   Fnv1a(reply.value().body) == want_checksum;
    return wall;
  };

  // The cold request fits and fills the cache; measured separately.
  bool cold_ok = true;
  const double cold_wall =
      one_request(csv_bytes, expected_checksum[0], &cold_ok);

  const size_t warm_requests = std::max<size_t>(20, env.trials);
  Series warm[2];  // csv, cols
  const std::pair<const char*, const std::string*> framings[] = {
      {"csv", &csv_bytes}, {"cols", &cols_bytes}};
  for (int f = 0; f < 2; ++f) {
    std::vector<double> latencies;
    latencies.reserve(warm_requests);
    bool ok = cold_ok;
    for (size_t r = 0; r < warm_requests; ++r) {
      latencies.push_back(
          one_request(*framings[f].second, expected_checksum[f], &ok));
    }
    warm[f] = Summarize(latencies, ok);
  }

  auto bye = client.Call(serve::Tag::kShutdown, "", serve::RequestBody{});
  const bool shutdown_ok = bye.ok() && bye.value().ok();
  server_thread.join();
  const bool lifecycle_ok = shutdown_ok && serve_exit == 0;
  if (!lifecycle_ok) {
    std::fprintf(stderr, "daemon lifecycle failed (exit %d): %s\n",
                 serve_exit, server_log.str().c_str());
  }

  // Headline: the framing a latency-sensitive client would use (cols).
  const double speedup =
      baseline.qps() > 0 ? warm[1].qps() / baseline.qps() : 0.0;
  TablePrinter table({"mode", "requests", "QPS", "p50 ms", "p99 ms",
                      "checksum ok"});
  table.AddRow({"per-request refit", std::to_string(baseline.requests),
                TablePrinter::Fmt(baseline.qps(), 2),
                TablePrinter::Fmt(baseline.p50_ms, 2),
                TablePrinter::Fmt(baseline.p99_ms, 2),
                baseline.checksums_ok ? "YES" : "NO"});
  table.AddRow({"popp-serve warm (csv)", std::to_string(warm[0].requests),
                TablePrinter::Fmt(warm[0].qps(), 2),
                TablePrinter::Fmt(warm[0].p50_ms, 2),
                TablePrinter::Fmt(warm[0].p99_ms, 2),
                warm[0].checksums_ok ? "YES" : "NO"});
  table.AddRow({"popp-serve warm (cols)", std::to_string(warm[1].requests),
                TablePrinter::Fmt(warm[1].qps(), 2),
                TablePrinter::Fmt(warm[1].p50_ms, 2),
                TablePrinter::Fmt(warm[1].p99_ms, 2),
                warm[1].checksums_ok ? "YES" : "NO"});
  table.Print("popp-serve vs process-per-request (replies must checksum)");
  std::printf("cold first request (fit + encode): %.2f ms; warm cols "
              "speedup %.2fx over per-request refit\n",
              1e3 * cold_wall, speedup);

  std::ofstream json("BENCH_serve.json");
  json << "{\n  \"experiment\": \"serve\",\n"
       << "  \"host\": " << HostJson() << ",\n"
       << "  \"rows\": " << data.NumRows() << ",\n"
       << "  \"attributes\": " << data.NumAttributes() << ",\n"
       << "  \"baseline\": {\"requests\": " << baseline.requests
       << ", \"qps\": " << baseline.qps()
       << ", \"p50_ms\": " << baseline.p50_ms
       << ", \"p99_ms\": " << baseline.p99_ms << "},\n"
       << "  \"warm_csv\": {\"requests\": " << warm[0].requests
       << ", \"qps\": " << warm[0].qps()
       << ", \"p50_ms\": " << warm[0].p50_ms
       << ", \"p99_ms\": " << warm[0].p99_ms << "},\n"
       << "  \"warm_cols\": {\"requests\": " << warm[1].requests
       << ", \"qps\": " << warm[1].qps()
       << ", \"p50_ms\": " << warm[1].p50_ms
       << ", \"p99_ms\": " << warm[1].p99_ms << "},\n"
       << "  \"cold_first_request_ms\": " << 1e3 * cold_wall << ",\n"
       << "  \"warm_speedup\": " << speedup << ",\n"
       << "  \"checksums_match\": "
       << (baseline.checksums_ok && warm[0].checksums_ok &&
                   warm[1].checksums_ok
               ? "true"
               : "false")
       << ",\n  \"graceful_shutdown\": " << (lifecycle_ok ? "true" : "false")
       << "\n}\n";
  std::printf("wrote BENCH_serve.json (warm cols QPS %.2f, speedup "
              "%.2fx)\n",
              warm[1].qps(), speedup);

  return (baseline.checksums_ok && warm[0].checksums_ok &&
          warm[1].checksums_ok && lifecycle_ok)
             ? 0
             : 1;
}

}  // namespace
}  // namespace popp::bench

int main() { return popp::bench::Run(); }
