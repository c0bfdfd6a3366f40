// Experiment P1 — scaling of the deterministic parallel execution layer.
//
// For a rows × attributes grid, runs the three parallelized hot paths
// (plan selection, tree induction, risk trials) at 1/2/4/8 threads,
// reporting wall-clock, speedup over serial, and a checksum of every
// produced artifact. The checksum MUST be identical across thread counts
// — that is the layer's contract (bit-identical results for every
// ExecPolicy) — so the benchmark doubles as an end-to-end equivalence
// check at benchmark scale. Emits BENCH_parallel.json next to the
// printed table.
//
// Tree induction additionally reports the frontier engine's per-stage
// breakdown (root sort, split scan, repartition) and `tree_speedup`: the
// ratio of the reference engine's serial build time (the recursive
// Algorithm::kResort, measured once per dataset) to the cell's frontier
// build time. That reference tree is also byte-compared against every
// cell's tree, so the speedup is over a bit-identical computation, not a
// relaxed one. The metric is engine-over-engine, so it also shows the
// frontier engine's algorithmic gains (columnar partitions, bin-coded
// scans, allocation-free nodes) on a host with fewer cores than threads.
// The JSON records the host's core count and CPU model.
//
// Environment: POPP_ROWS caps the grid's largest dataset, POPP_TRIALS
// the risk-trial count (so CI can smoke-run this in seconds).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "experiment_common.h"
#include "parallel/exec_policy.h"
#include "risk/trials.h"
#include "transform/plan.h"
#include "transform/serialize.h"
#include "tree/builder.h"
#include "tree/serialize.h"
#include "util/table.h"

namespace popp::bench {
namespace {

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// FNV-1a over a byte string; chainable via `seed`.
uint64_t Fnv1a(const std::string& bytes, uint64_t seed = 1469598103934665603ull) {
  uint64_t h = seed;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// The host the grid ran on, as a JSON object: online cores and the CPU
/// model /proc/cpuinfo names.
std::string HostJson() {
  std::string model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    const size_t colon = line.find(':');
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
      model = line.substr(line.find_first_not_of(" \t", colon + 1));
      break;
    }
  }
  return "{\"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu_model\": \"" + model + "\"}";
}

struct CellResult {
  size_t threads = 1;
  double plan_s = 0;
  double tree_s = 0;
  BuildStats tree_stats;
  double trials_s = 0;
  uint64_t checksum = 0;
  bool tree_matches_baseline = false;

  double total() const { return plan_s + tree_s + trials_s; }
};

/// Runs the three parallel hot paths once under `threads` threads.
/// `baseline_tree` is the serial kResort engine's serialized tree for the
/// same dataset; every cell's tree must match it byte for byte.
CellResult RunCell(const Dataset& data, size_t trials, uint64_t seed,
                   size_t threads, const std::string& baseline_tree) {
  CellResult result;
  result.threads = threads;
  const ExecPolicy exec{threads};

  auto t0 = std::chrono::steady_clock::now();
  Rng rng(seed);
  const TransformPlan plan = TransformPlan::Create(
      data, PaperTransform(BreakpointPolicy::kChooseMaxMP), rng, exec);
  result.plan_s = Seconds(t0);

  // Best of three builds: single-run tree times swing with scheduler
  // noise, and the engine-over-engine ratio is only meaningful when both
  // sides report their repeatable minimum (the baseline below is
  // measured the same way). All repeats produce bit-identical trees.
  DecisionTree tree;
  result.tree_s = 0;
  for (int rep = 0; rep < 3; ++rep) {
    BuildStats stats;
    t0 = std::chrono::steady_clock::now();
    DecisionTree built =
        DecisionTreeBuilder(BuildOptions{}, exec).Build(data, &stats);
    const double s = Seconds(t0);
    if (rep == 0 || s < result.tree_s) {
      result.tree_s = s;
      result.tree_stats = stats;
    }
    if (rep == 0) tree = std::move(built);
  }

  const AttributeSummary summary = AttributeSummary::FromDataset(data, 0);
  const PiecewiseOptions transform_options =
      PaperTransform(BreakpointPolicy::kChooseMaxMP);
  t0 = std::chrono::steady_clock::now();
  const std::vector<double> values = CollectTrials(
      trials, seed + 1,
      [&](Rng& trial_rng) {
        const PiecewiseTransform f =
            PiecewiseTransform::Create(summary, transform_options, trial_rng);
        const SortingCrack crack(summary, f);
        double cracked = 0;
        for (AttrValue v : summary.values()) {
          if (crack.Guess(f.Apply(v)) == v) cracked += 1;
        }
        return cracked / static_cast<double>(summary.NumDistinct());
      },
      exec);
  result.trials_s = Seconds(t0);

  const std::string tree_bytes = SerializeTree(tree);
  result.tree_matches_baseline = tree_bytes == baseline_tree;
  uint64_t h = Fnv1a(SerializePlan(plan));
  h = Fnv1a(tree_bytes, h);
  std::string trial_bytes;
  trial_bytes.reserve(values.size() * sizeof(double));
  for (double v : values) {
    trial_bytes.append(reinterpret_cast<const char*>(&v), sizeof(v));
  }
  result.checksum = Fnv1a(trial_bytes, h);
  return result;
}

int Run() {
  const ExperimentEnv env = GetEnv();
  PrintBanner("Parallel scaling (deterministic execution layer)", env);

  const size_t full_rows = env.rows;
  const std::vector<size_t> row_grid = {
      std::max<size_t>(200, full_rows / 5), full_rows};
  const std::vector<size_t> attr_grid = {3, 10};
  const std::vector<size_t> thread_grid = {1, 2, 4, 8};

  TablePrinter table({"rows", "attrs", "threads", "plan s", "tree s",
                      "sort s", "scan s", "part s", "sub s", "tree x",
                      "trials s", "total s", "speedup", "checksum ok"});
  std::ofstream json("BENCH_parallel.json");
  json << "{\n  \"experiment\": \"parallel_scaling\",\n  \"host\": "
       << HostJson() << ",\n  \"trials\": " << env.trials
       << ",\n  \"tree_speedup_baseline\": "
          "\"resort recursive engine (reference split scan), "
          "1 thread\",\n  \"cells\": [\n";
  bool first_cell = true;
  int mismatches = 0;

  for (size_t rows : row_grid) {
    for (size_t attrs : attr_grid) {
      // Cycle the small-spec attribute templates out to `attrs` columns:
      // unlike the Figure-8 spec, these targets are satisfiable at every
      // grid size, so the same binary smoke-runs on hundreds of rows.
      CovtypeLikeSpec spec = SmallCovtypeSpec(rows);
      const std::vector<AttributeTargets> templates = spec.attributes;
      spec.attributes.clear();
      for (size_t a = 0; a < attrs; ++a) {
        AttributeTargets t = templates[a % templates.size()];
        t.name = "a" + std::to_string(a + 1);
        spec.attributes.push_back(t);
      }
      Rng data_rng(env.seed);
      const Dataset data = GenerateCovtypeLike(spec, data_rng);

      // The engine-over-engine baseline: the kResort reference builder,
      // serial, measured once per dataset.
      BuildOptions baseline_options;
      baseline_options.algorithm = BuildOptions::Algorithm::kResort;
      // Best of three, matching the frontier cells' measurement.
      double tree_baseline_s = 0;
      DecisionTree baseline;
      for (int rep = 0; rep < 3; ++rep) {
        auto t0 = std::chrono::steady_clock::now();
        DecisionTree built = DecisionTreeBuilder(baseline_options).Build(data);
        const double s = Seconds(t0);
        if (rep == 0 || s < tree_baseline_s) tree_baseline_s = s;
        if (rep == 0) baseline = std::move(built);
      }
      const std::string baseline_tree = SerializeTree(baseline);

      double serial_total = 0;
      uint64_t serial_checksum = 0;
      for (size_t threads : thread_grid) {
        const CellResult cell =
            RunCell(data, env.trials, env.seed, threads, baseline_tree);
        if (threads == 1) {
          serial_total = cell.total();
          serial_checksum = cell.checksum;
        }
        const bool checksum_ok =
            cell.checksum == serial_checksum && cell.tree_matches_baseline;
        if (!checksum_ok) ++mismatches;
        const double speedup =
            cell.total() > 0 ? serial_total / cell.total() : 1.0;
        const double tree_speedup =
            cell.tree_s > 0 ? tree_baseline_s / cell.tree_s : 1.0;
        table.AddRow({std::to_string(rows), std::to_string(attrs),
                      std::to_string(threads),
                      TablePrinter::Fmt(cell.plan_s, 3),
                      TablePrinter::Fmt(cell.tree_s, 3),
                      TablePrinter::Fmt(cell.tree_stats.sort_s, 3),
                      TablePrinter::Fmt(cell.tree_stats.scan_s, 3),
                      TablePrinter::Fmt(cell.tree_stats.partition_s, 3),
                      TablePrinter::Fmt(cell.tree_stats.subtree_s, 3),
                      TablePrinter::Fmt(tree_speedup, 2),
                      TablePrinter::Fmt(cell.trials_s, 3),
                      TablePrinter::Fmt(cell.total(), 3),
                      TablePrinter::Fmt(speedup, 2),
                      checksum_ok ? "YES" : "NO"});
        if (!first_cell) json << ",\n";
        first_cell = false;
        json << "    {\"rows\": " << rows << ", \"attrs\": " << attrs
             << ", \"threads\": " << threads << ", \"plan_s\": "
             << cell.plan_s << ", \"tree_s\": " << cell.tree_s
             << ", \"tree_sort_s\": " << cell.tree_stats.sort_s
             << ", \"tree_scan_s\": " << cell.tree_stats.scan_s
             << ", \"tree_partition_s\": " << cell.tree_stats.partition_s
             << ", \"tree_subtree_s\": " << cell.tree_stats.subtree_s
             << ", \"tree_baseline_s\": " << tree_baseline_s
             << ", \"tree_speedup\": " << tree_speedup
             << ", \"trials_s\": " << cell.trials_s << ", \"total_s\": "
             << cell.total() << ", \"speedup\": " << speedup
             << ", \"checksum\": \"" << std::hex << cell.checksum << std::dec
             << "\", \"checksum_ok\": " << (checksum_ok ? "true" : "false")
             << "}";
      }
    }
  }
  json << "\n  ],\n  \"checksum_mismatches\": " << mismatches << "\n}\n";
  table.Print(
      "wall-clock by thread count (checksums must all match; tree x = "
      "frontier engine over the serial kResort reference)");
  std::printf("wrote BENCH_parallel.json (%d checksum mismatches)\n",
              mismatches);
  return mismatches == 0 ? 0 : 1;
}

}  // namespace
}  // namespace popp::bench

int main() { return popp::bench::Run(); }
