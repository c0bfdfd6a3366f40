// Experiment S2 — scaling profile of the sharded two-phase release
// (src/shard/).
//
// Runs `shard-release` over the covertype-like benchmark CSV at several
// shard counts (thread workers, one cell with forked process workers) and
// reports the phase-split wall times the pipeline exposes: the row-count
// pass, parallel summarize, merge tree + plan fit, parallel encode, and
// finalize (shard hashing + meta-manifest commit). Every cell's
// concatenated shard bytes and fitted plan are checksummed against the
// one-shot batch release — the checksums MUST match (the sharded release
// is bit-identical to the batch release at any shard count, thread count
// and worker mode), so the benchmark doubles as an end-to-end equivalence
// check at benchmark scale. The peak-rows column is the memory proxy: it
// tracks chunk-rows per worker, not the dataset size. Emits
// BENCH_shard.json next to the printed table.
//
// Environment: POPP_ROWS sets the dataset size (paper-scale profile:
// POPP_ROWS=1000000; CI smoke-runs small), POPP_SEED the encoding seed.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "data/csv.h"
#include "experiment_common.h"
#include "shard/meta_manifest.h"
#include "shard/pipeline.h"
#include "util/table.h"

namespace popp::bench {
namespace {

struct Cell {
  size_t shards;
  size_t threads;
  shard::WorkersMode mode;
};

int Run() {
  const ExperimentEnv env = GetEnv();
  PrintBanner("Sharded two-phase release (parallel shard workers)", env);

  Rng data_rng(env.seed);
  const Dataset data =
      GenerateCovtypeLike(DefaultCovtypeSpec(env.rows), data_rng);
  const std::string input_path = "bench_shard_input.csv";
  const std::string output_path = "bench_shard_output";
  if (!WriteCsv(data, input_path).ok()) {
    std::fprintf(stderr, "cannot write %s\n", input_path.c_str());
    return 1;
  }

  // The batch baseline every sharded cell must reproduce byte-for-byte.
  const uint64_t batch_checksum = BatchReleaseChecksum(data, env.seed);

  const std::vector<Cell> grid = {
      {1, 1, shard::WorkersMode::kThread},
      {2, 2, shard::WorkersMode::kThread},
      {4, 4, shard::WorkersMode::kThread},
      {8, 8, shard::WorkersMode::kThread},
      {4, 4, shard::WorkersMode::kProcess},
  };

  TablePrinter table({"shards", "threads", "mode", "wall s", "count s",
                      "summarize s", "merge+fit s", "encode s", "finalize s",
                      "rows/s", "peak rows", "MB", "checksum ok"});
  std::ofstream json("BENCH_shard.json");
  json << "{\n  \"experiment\": \"shard_release\",\n  \"host\": "
       << HostJson() << ",\n  \"rows\": "
       << data.NumRows() << ",\n  \"batch_checksum\": \"" << std::hex
       << batch_checksum << std::dec << "\",\n  \"cells\": [\n";
  bool first_cell = true;
  int mismatches = 0;

  for (const Cell& cell : grid) {
    shard::ShardOptions options;
    options.num_shards = cell.shards;
    options.workers_mode = cell.mode;
    options.seed = env.seed;
    options.exec = ExecPolicy{cell.threads};
    shard::ShardStats stats;
    const auto t0 = std::chrono::steady_clock::now();
    auto plan = shard::ShardedCustodian::Release(input_path, output_path,
                                                 options, &stats);
    const double wall = Seconds(t0);
    if (!plan.ok()) {
      std::fprintf(stderr, "shard release failed: %s\n",
                   plan.status().ToString().c_str());
      return 1;
    }
    std::string released;
    for (size_t k = 0; k < cell.shards; ++k) {
      released += ReadFileBytes(shard::ShardFilePath(output_path, k));
    }
    const uint64_t checksum = ReleaseChecksum(plan.value(), released);
    const bool checksum_ok = checksum == batch_checksum;
    if (!checksum_ok) ++mismatches;
    const double rows_per_s =
        wall > 0 ? static_cast<double>(stats.rows) / wall : 0.0;
    const char* mode_name =
        cell.mode == shard::WorkersMode::kProcess ? "process" : "thread";
    table.AddRow({std::to_string(cell.shards), std::to_string(cell.threads),
                  mode_name, TablePrinter::Fmt(wall, 3),
                  TablePrinter::Fmt(stats.count_seconds, 3),
                  TablePrinter::Fmt(stats.summarize_seconds, 3),
                  TablePrinter::Fmt(stats.merge_fit_seconds, 3),
                  TablePrinter::Fmt(stats.encode_seconds, 3),
                  TablePrinter::Fmt(stats.finalize_seconds, 3),
                  TablePrinter::Fmt(rows_per_s, 0),
                  std::to_string(stats.peak_resident_rows),
                  TablePrinter::Fmt(static_cast<double>(stats.released_bytes) /
                                        (1024.0 * 1024.0),
                                    1),
                  checksum_ok ? "YES" : "NO"});
    if (!first_cell) json << ",\n";
    first_cell = false;
    json << "    {\"shards\": " << cell.shards
         << ", \"threads\": " << cell.threads << ", \"mode\": \"" << mode_name
         << "\", \"wall_s\": " << wall
         << ", \"count_s\": " << stats.count_seconds
         << ", \"summarize_s\": " << stats.summarize_seconds
         << ", \"merge_fit_s\": " << stats.merge_fit_seconds
         << ", \"encode_s\": " << stats.encode_seconds
         << ", \"finalize_s\": " << stats.finalize_seconds
         << ", \"rows_per_s\": " << rows_per_s
         << ", \"peak_resident_rows\": " << stats.peak_resident_rows
         << ", \"released_bytes\": " << stats.released_bytes
         << ", \"checksum\": \"" << std::hex << checksum << std::dec
         << "\", \"checksum_ok\": " << (checksum_ok ? "true" : "false")
         << "}";
  }
  json << "\n  ],\n  \"checksum_mismatches\": " << mismatches << "\n}\n";
  table.Print(
      "sharded release vs batch (checksums must match; peak rows must track "
      "chunk rows per worker, not dataset size)");
  std::printf("wrote BENCH_shard.json (%d checksum mismatches)\n",
              mismatches);
  std::remove(input_path.c_str());
  for (size_t k = 0; k < 8; ++k) {
    std::remove(shard::ShardFilePath(output_path, k).c_str());
  }
  std::remove(output_path.c_str());
  return mismatches == 0 ? 0 : 1;
}

}  // namespace
}  // namespace popp::bench

int main() { return popp::bench::Run(); }
