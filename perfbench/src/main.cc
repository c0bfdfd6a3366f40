// perfbench: the repository's release benchmark.
//
//   perfbench run --workload stream_csv|shard_csv|serve_mix --seed N
//                 --seconds S --trace 0|1 --serve PATH [--tiny]
//
// Runs in the current directory (perfbench/run.py gives it a fresh run
// directory inside the checkout), prints a human-readable report, and ends
// its standard output with one JSON line: {"correct", "attempted",
// "failed", "metrics"}. With --trace 0 the metrics are the end-to-end
// ones; with --trace 1 they are the per-layer ones (0 for a layer the
// workload never calls). Exit status 0 only if every output matched the
// batch release.
//
//   perfbench release-child ...   internal: one release in a fresh process

#include <unistd.h>

#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

int ReleaseChildMain(const std::vector<std::string>& args);
int RunReleaseWorkload(const RunConfig& config, Outcome* outcome);
int RunServeWorkload(const RunConfig& config, Outcome* outcome);

namespace {

/// The per-layer vocabulary, in report order. Every traced run reports
/// every name; a layer the workload does not call reads 0.
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"data.csv_parse_s", "s"},       {"data.csv_format_s", "s"},
    {"data.cols_parse_ms", "ms"},    {"data.cols_serialize_ms", "ms"},
    {"stream.summarize_s", "s"},     {"stream.journal_s", "s"},
    {"transform.fit_s", "s"},        {"transform.compile_s", "s"},
    {"transform.kernel_s", "s"},     {"fault.write_s", "s"},
    {"util.crc64_s", "s"},           {"shard.count_s", "s"},
    {"shard.skip_s", "s"},           {"shard.summarize_s", "s"},
    {"shard.merge_fit_s", "s"},      {"shard.encode_s", "s"},
    {"shard.finalize_s", "s"},       {"parallel.cpu_util", "1"},
    {"serve.frame_ms", "ms"},        {"serve.plan_key_ms", "ms"},
    {"serve.call_ms", "ms"},         {"serve.unattributed_ms", "ms"},
    {"serve.cache_hits", "count"},   {"serve.cache_misses", "count"},
    {"serve.cache_hit_ratio", "1"},  {"serve.shed", "count"},
    {"serve.gen_late_ms", "ms"},     {"trace.replay_s", "s"},
    {"trace.overhead_frac", "1"},    {"ledger.unattributed_frac", "1"},
};

std::string SelfPath() {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof buf - 1);
  return n > 0 ? std::string(buf, n) : std::string();
}

int Usage() {
  std::cerr << "usage: perfbench run --workload stream_csv|shard_csv|serve_mix"
               " --seed N --seconds S --trace 0|1 --serve PATH [--tiny]\n";
  return 2;
}

int Run(const std::vector<std::string>& args) {
  RunConfig config;
  config.self_path = SelfPath();
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& key = args[i];
    if (key == "--tiny") {
      config.tiny = true;
      continue;
    }
    if (i + 1 >= args.size()) return Usage();
    const std::string& value = args[++i];
    if (key == "--workload") config.workload = value;
    else if (key == "--seed") config.seed = std::stoull(value);
    else if (key == "--seconds") config.seconds = std::stod(value);
    else if (key == "--trace") config.trace = value == "1";
    else if (key == "--serve") config.serve_path = value;
    else return Usage();
  }
  Outcome outcome;
  int status = 0;
  if (config.workload == "stream_csv" || config.workload == "shard_csv") {
    status = RunReleaseWorkload(config, &outcome);
  } else if (config.workload == "serve_mix") {
    if (config.serve_path.empty()) return Usage();
    status = RunServeWorkload(config, &outcome);
  } else {
    std::cerr << "unknown workload '" << config.workload << "'\n";
    return Usage();
  }
  if (status != 0 || outcome.attempted == 0) {
    std::cerr << "perfbench: the " << config.workload << " run failed\n";
    return 1;
  }
  if (config.trace) {
    std::map<std::string, double> measured;
    for (const Metric& m : outcome.metrics) measured[m.name] = m.value;
    outcome.metrics.clear();
    for (const auto& [name, unit] : kLayerMetrics) {
      outcome.metrics.push_back({name, measured[name], unit});
    }
  }
  outcome.correct = outcome.failed == 0;
  const std::string host = HostJson(config);
  const std::string result = OutcomeJson(outcome);
  std::ofstream("result.json") << "{\"host\": " << host
                               << ", \"result\": " << result << "}\n";
  std::cout << "host: " << host << "\n" << result << std::endl;
  return outcome.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return perfbench::Usage();
  const std::vector<std::string> rest(args.begin() + 1, args.end());
  if (args[0] == "run") return perfbench::Run(rest);
  if (args[0] == "release-child") return perfbench::ReleaseChildMain(rest);
  return perfbench::Usage();
}
