// Experiment S1 — throughput and memory bound of the streaming release
// engine (src/stream/).
//
// Streams the covertype-like benchmark CSV through stream-release (the
// journaled ResumableCsvChunkWriter sink `popp stream-release` runs) at
// several chunk sizes and thread counts, reporting wall-clock, throughput
// (rows/s), and the peak number of resident rows. Every cell's released
// bytes and key are checksummed against the one-shot batch release — the
// checksums MUST match (the streamed release is bit-identical to the batch
// release at any chunk size and thread count), so the benchmark doubles as
// an end-to-end equivalence check at benchmark scale. The peak-rows column
// demonstrates the bounded-memory contract: it tracks chunk-rows, not the
// dataset size. Emits BENCH_stream.json next to the printed table.
//
// Environment: POPP_ROWS sets the dataset size (so CI can smoke-run this
// in seconds), POPP_SEED the encoding seed.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "data/csv.h"
#include "experiment_common.h"
#include "stream/chunk_io.h"
#include "stream/manifest.h"
#include "stream/streaming_custodian.h"
#include "util/table.h"

namespace popp::bench {
namespace {

int Run() {
  const ExperimentEnv env = GetEnv();
  PrintBanner("Streaming release engine (bounded-memory custodian)", env);

  Rng data_rng(env.seed);
  const Dataset data = GenerateCovtypeLike(SmallCovtypeSpec(env.rows),
                                           data_rng);
  const std::string input_path = "bench_stream_input.csv";
  const std::string output_path = "bench_stream_output.csv";
  if (!WriteCsv(data, input_path).ok()) {
    std::fprintf(stderr, "cannot write %s\n", input_path.c_str());
    return 1;
  }

  // The batch baseline every streamed cell must reproduce byte-for-byte.
  const uint64_t batch_checksum = BatchReleaseChecksum(data, env.seed);

  std::vector<size_t> chunk_grid = {64, 512, 4096};
  if (chunk_grid.back() < data.NumRows()) {
    chunk_grid.push_back(data.NumRows());
  }
  const std::vector<size_t> thread_grid = {1, 4};

  TablePrinter table({"chunk rows", "threads", "wall s", "rows/s",
                      "peak rows", "checksum ok"});
  std::ofstream json("BENCH_stream.json");
  json << "{\n  \"experiment\": \"stream_release\",\n  \"host\": "
       << HostJson() << ",\n  \"rows\": "
       << data.NumRows() << ",\n  \"batch_checksum\": \"" << std::hex
       << batch_checksum << std::dec << "\",\n  \"cells\": [\n";
  bool first_cell = true;
  int mismatches = 0;

  for (const size_t chunk_rows : chunk_grid) {
    for (const size_t threads : thread_grid) {
      stream::StreamOptions options;
      options.chunk_rows = chunk_rows;
      options.seed = env.seed;
      options.exec = ExecPolicy{threads};
      stream::CsvChunkReader reader(input_path);
      stream::ResumableCsvChunkWriter writer(output_path);
      stream::StreamStats stats;
      const auto t0 = std::chrono::steady_clock::now();
      auto plan =
          stream::StreamingCustodian::Release(reader, writer, options,
                                              &stats);
      const double wall = Seconds(t0);
      if (!plan.ok()) {
        std::fprintf(stderr, "stream release failed: %s\n",
                     plan.status().ToString().c_str());
        return 1;
      }
      const uint64_t checksum =
          ReleaseChecksum(plan.value(), ReadFileBytes(output_path));
      const bool checksum_ok = checksum == batch_checksum;
      if (!checksum_ok) ++mismatches;
      const double rows_per_s =
          wall > 0 ? static_cast<double>(stats.rows) / wall : 0.0;
      table.AddRow({std::to_string(chunk_rows), std::to_string(threads),
                    TablePrinter::Fmt(wall, 3), TablePrinter::Fmt(rows_per_s, 0),
                    std::to_string(stats.peak_resident_rows),
                    checksum_ok ? "YES" : "NO"});
      if (!first_cell) json << ",\n";
      first_cell = false;
      json << "    {\"chunk_rows\": " << chunk_rows
           << ", \"threads\": " << threads << ", \"wall_s\": " << wall
           << ", \"rows_per_s\": " << rows_per_s
           << ", \"peak_resident_rows\": " << stats.peak_resident_rows
           << ", \"checksum\": \"" << std::hex << checksum << std::dec
           << "\", \"checksum_ok\": " << (checksum_ok ? "true" : "false")
           << "}";
    }
  }
  json << "\n  ],\n  \"checksum_mismatches\": " << mismatches << "\n}\n";
  table.Print(
      "streamed release vs batch (checksums must match; peak rows must "
      "track chunk rows)");
  std::printf("wrote BENCH_stream.json (%d checksum mismatches)\n",
              mismatches);
  std::remove(input_path.c_str());
  std::remove(output_path.c_str());
  return mismatches == 0 ? 0 : 1;
}

}  // namespace
}  // namespace popp::bench

int main() { return popp::bench::Run(); }
