// Experiment S3 — cost of supervised execution (src/resil/).
//
// Three measurements, all emitted into BENCH_resil.json:
//
//  1. Fault-free supervised release: the process-mode sharded release
//     with the full watchdog stack (heartbeats, deadline poller, restart
//     budget), median wall over the trials. It is the baseline the
//     recovery latency below is measured against.
//  2. Admission hot path: the uncontended Acquire/Release round-trip of
//     the popp-serve AdmissionController in ns/op. This is the exact
//     per-request cost added over the PR 8 daemon, which had no
//     admission layer.
//  3. Recovery latency: supervised process-mode releases with a
//     deterministic crash injected into one forked worker (child-only
//     one-shot fault, so the restarted attempt never re-fires). Each
//     firing trial must still converge byte-identically; the extra wall
//     time over the fault-free median of (1) is the recovery latency
//     (detection + backoff + journal-resume redo).
//
// Every release in every section is checksummed against the one-shot
// batch release — a mismatch fails the binary, so the benchmark doubles
// as an equivalence check for the supervised paths.
//
// Environment: POPP_ROWS sets the dataset size, POPP_TRIALS the trial
// count per cell (CI smoke-runs small), POPP_SEED the encoding seed.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "data/csv.h"
#include "experiment_common.h"
#include "fault/failpoint.h"
#include "fault/file.h"
#include "resil/admission.h"
#include "resil/deadline.h"
#include "shard/meta_manifest.h"
#include "shard/pipeline.h"
#include "util/table.h"

namespace popp::bench {
namespace {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return (values[mid - 1] + values[mid]) / 2.0;
}

struct RunResult {
  double wall_s = 0.0;
  uint64_t checksum = 0;
  shard::ShardStats stats;
  bool ok = false;
};

constexpr size_t kShards = 4;

/// One supervised process-mode release; checksums the concatenated shard
/// bytes + serialized plan.
RunResult RunRelease(const std::string& input_path,
                     const std::string& output_path,
                     const ExperimentEnv& env) {
  shard::ShardOptions options;
  options.num_shards = kShards;
  options.workers_mode = shard::WorkersMode::kProcess;
  options.seed = env.seed;
  options.exec = ExecPolicy{kShards};
  RunResult result;
  const auto t0 = std::chrono::steady_clock::now();
  auto plan = shard::ShardedCustodian::Release(input_path, output_path,
                                               options, &result.stats);
  result.wall_s = Seconds(t0);
  if (!plan.ok()) {
    std::fprintf(stderr, "shard release failed: %s\n",
                 plan.status().ToString().c_str());
    return result;
  }
  std::string released;
  for (size_t k = 0; k < kShards; ++k) {
    released += ReadFileBytes(shard::ShardFilePath(output_path, k));
  }
  result.checksum = ReleaseChecksum(plan.value(), released);
  result.ok = true;
  return result;
}

void RemoveReleaseFiles(const std::string& output_path) {
  for (size_t k = 0; k < kShards; ++k) {
    std::remove(shard::ShardFilePath(output_path, k).c_str());
    std::remove((shard::ShardFilePath(output_path, k) + ".hb").c_str());
  }
  std::remove(output_path.c_str());
}

int Run() {
  const ExperimentEnv env = GetEnv();
  PrintBanner("Supervised execution cost & recovery latency", env);

  Rng data_rng(env.seed);
  const Dataset data =
      GenerateCovtypeLike(DefaultCovtypeSpec(env.rows), data_rng);
  const std::string input_path = "bench_resil_input.csv";
  const std::string output_path = "bench_resil_output";
  if (!WriteCsv(data, input_path).ok()) {
    std::fprintf(stderr, "cannot write %s\n", input_path.c_str());
    return 1;
  }

  // The batch baseline every supervised cell must reproduce byte-for-byte.
  const uint64_t batch_checksum = BatchReleaseChecksum(data, env.seed);

  int mismatches = 0;

  // -- 1. Fault-free supervised releases ---------------------------------
  const size_t fault_free_trials = std::max<size_t>(3, env.trials);
  std::vector<double> fault_free_walls;
  for (size_t trial = 0; trial < fault_free_trials; ++trial) {
    RunResult run = RunRelease(input_path, output_path, env);
    if (!run.ok) return 1;
    if (run.checksum != batch_checksum) ++mismatches;
    fault_free_walls.push_back(run.wall_s);
    RemoveReleaseFiles(output_path);
  }
  const double fault_free_median = Median(fault_free_walls);

  TablePrinter table({"cell", "trials", "median s", "rows/s", "checksum ok"});
  table.AddRow({"process supervised", std::to_string(fault_free_trials),
                TablePrinter::Fmt(fault_free_median, 3),
                TablePrinter::Fmt(
                    fault_free_median > 0
                        ? static_cast<double>(data.NumRows()) /
                              fault_free_median
                        : 0.0,
                    0),
                mismatches == 0 ? "YES" : "NO"});

  // -- 2. Admission hot path (uncontended Acquire/Release) ---------------
  const size_t admission_iters = 200000;
  double admission_ns = 0.0;
  {
    resil::AdmissionController admission{resil::AdmissionOptions{}};
    const resil::Deadline no_deadline;  // never expires
    std::atomic<bool> stop{false};
    const auto t0 = std::chrono::steady_clock::now();
    for (size_t i = 0; i < admission_iters; ++i) {
      if (!admission.Acquire("bench", no_deadline, &stop).ok()) {
        std::fprintf(stderr, "admission acquire failed\n");
        return 1;
      }
      admission.Release("bench");
    }
    admission_ns =
        Seconds(t0) * 1e9 / static_cast<double>(admission_iters);
  }

  // -- 3. Recovery latency under injected worker crashes -----------------
  // Probe the coordinator's fault-layer op count, then walk candidate
  // fire indices with a stride. A child-only one-shot crash fires in
  // whichever forked worker reaches the armed index first (detected by
  // the consumed token); the restarted attempt resumes from its journal
  // and cannot re-fire. Non-firing probes are skipped.
  size_t total_ops = 0;
  {
    fault::ScopedFaultInjection probe(fault::FaultSchedule::CountOnly());
    RunResult run = RunRelease(input_path, output_path, env);
    if (!run.ok) return 1;
    total_ops = probe.ops_seen();
    RemoveReleaseFiles(output_path);
  }
  const size_t recovery_samples_target = std::min<size_t>(6, env.trials);
  const size_t max_probes = recovery_samples_target * 12;
  const size_t stride = std::max<size_t>(1, total_ops / max_probes);
  const std::string token = output_path + "_token";
  std::vector<double> recovery_walls;
  size_t recovery_restarts = 0;
  size_t probes = 0;
  for (size_t fire_at = stride / 2;
       fire_at < total_ops && probes < max_probes &&
       recovery_walls.size() < recovery_samples_target;
       fire_at += stride, ++probes) {
    if (!fault::WriteFileAtomic(token, "armed").ok()) return 1;
    fault::FaultSchedule schedule;
    schedule.fire_at = fire_at;
    schedule.kind = fault::Injection::Kind::kCrash;
    schedule.child_only = true;
    schedule.one_shot_token = token;
    RunResult run;
    {
      fault::ScopedFaultInjection inject(schedule);
      run = RunRelease(input_path, output_path, env);
    }
    const bool fired = !fault::FileExists(token);
    (void)fault::RemoveFile(token);
    if (!run.ok) return 1;
    if (run.checksum != batch_checksum) ++mismatches;
    RemoveReleaseFiles(output_path);
    if (!fired) continue;  // no child reached this index — skip
    recovery_walls.push_back(run.wall_s);
    recovery_restarts += run.stats.worker_restarts;
  }
  std::vector<double> sorted_recovery = recovery_walls;
  std::sort(sorted_recovery.begin(), sorted_recovery.end());
  const double recovery_median = Median(recovery_walls);

  table.Print(
      "fault-free supervised release (checksums must match the batch "
      "release)");
  std::printf("admission Acquire/Release: %.0f ns/op (%zu iterations)\n",
              admission_ns, admission_iters);
  if (recovery_walls.empty()) {
    std::printf(
        "recovery: no probe fired in a worker (%zu probes over %zu ops) — "
        "no samples\n",
        probes, total_ops);
  } else {
    std::printf(
        "recovery: %zu crash trials converged; wall min/median/max "
        "%.3f/%.3f/%.3f s vs %.3f s fault-free (+%.3f s median), "
        "%zu restarts\n",
        recovery_walls.size(), sorted_recovery.front(), recovery_median,
        sorted_recovery.back(), fault_free_median,
        recovery_median - fault_free_median, recovery_restarts);
  }

  std::ofstream json("BENCH_resil.json");
  json << "{\n  \"experiment\": \"resilience\",\n  \"host\": "
       << HostJson() << ",\n  \"rows\": " << data.NumRows()
       << ",\n  \"batch_checksum\": \"" << std::hex << batch_checksum
       << std::dec << "\",\n";
  json << "  \"admission\": {\"acquire_release_ns\": " << admission_ns
       << ", \"iterations\": " << admission_iters << "},\n";
  json << "  \"recovery\": {\"fault_free_trials\": " << fault_free_trials
       << ", \"fault_free_median_s\": " << fault_free_median
       << ", \"samples_s\": [";
  for (size_t i = 0; i < sorted_recovery.size(); ++i) {
    if (i) json << ", ";
    json << sorted_recovery[i];
  }
  json << "], \"median_s\": " << recovery_median
       << ", \"restarts\": " << recovery_restarts
       << ", \"probes\": " << probes << "},\n";
  json << "  \"checksum_mismatches\": " << mismatches << "\n}\n";
  std::printf("wrote BENCH_resil.json (%d checksum mismatches)\n",
              mismatches);

  std::remove(input_path.c_str());
  RemoveReleaseFiles(output_path);
  return mismatches == 0 ? 0 : 1;
}

}  // namespace
}  // namespace popp::bench

int main() { return popp::bench::Run(); }
