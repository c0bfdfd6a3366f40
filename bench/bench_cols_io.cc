// Experiment C1 — interchange-format throughput: popp-cols vs CSV.
//
// Writes the covertype-like benchmark relation in both formats, then
// times (a) the input-parse stage alone — draining each format through
// its ChunkReader, exactly the work stream-release's passes repeat — and
// (b) an end-to-end stream-release from each format into the journaled
// ResumableCsvChunkWriter sink `popp stream-release` runs. The drained
// rows and both releases are checksummed: the cols-fed artifacts MUST
// match the CSV-fed ones bit-for-bit, so the benchmark doubles as an
// equivalence check at benchmark scale. The full-size run is
// POPP_ROWS=1000000, the 1M x 10 grid. Emits BENCH_cols.json next to the
// printed table.
//
// Environment: POPP_ROWS sets the dataset size (so CI can smoke-run this
// in seconds), POPP_TRIALS the timing repetitions (best-of), POPP_SEED
// the encoding seed.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "data/cols.h"
#include "data/csv.h"
#include "experiment_common.h"
#include "stream/chunk_io.h"
#include "stream/cols_io.h"
#include "stream/manifest.h"
#include "stream/streaming_custodian.h"
#include "util/table.h"

namespace popp::bench {
namespace {

constexpr size_t kChunkRows = 4096;

/// Drains `reader` chunk by chunk, folding every cell and label into one
/// order-sensitive checksum — the compiler cannot dead-code the parse, and
/// equal checksums mean both formats delivered identical rows.
struct DrainResult {
  size_t rows = 0;
  uint64_t checksum = Fnv1a("");  // the FNV offset basis
};

DrainResult DrainChecksum(stream::ChunkReader& reader) {
  DrainResult result;
  for (;;) {
    auto chunk = reader.NextChunk(kChunkRows);
    if (!chunk.ok()) {
      std::fprintf(stderr, "NextChunk failed: %s\n",
                   chunk.status().ToString().c_str());
      return result;
    }
    const Dataset& d = chunk.value();
    if (d.NumRows() == 0) break;
    for (size_t r = 0; r < d.NumRows(); ++r) {
      for (size_t a = 0; a < d.NumAttributes(); ++a) {
        const double v = d.Value(r, a);
        result.checksum = Fnv1a(
            std::string_view(reinterpret_cast<const char*>(&v), sizeof(v)),
            result.checksum);
      }
      // Hash the class NAME, not the code: CSV readers assign codes by
      // first appearance while cols preserves the writer's dictionary
      // order, so codes for the same row can legally differ.
      result.checksum =
          Fnv1a(d.schema().ClassName(d.Label(r)), result.checksum);
    }
    result.rows += d.NumRows();
  }
  return result;
}

/// Best-of-`trials` wall clock of one parse drain.
template <typename MakeReader>
double BestParseWall(size_t trials, const MakeReader& make_reader,
                     DrainResult* out) {
  double best = 0;
  for (size_t t = 0; t < trials; ++t) {
    auto reader = make_reader();
    const auto t0 = std::chrono::steady_clock::now();
    DrainResult result = DrainChecksum(*reader);
    const double wall = Seconds(t0);
    if (t == 0 || wall < best) best = wall;
    *out = result;
  }
  return best;
}

int Run() {
  const ExperimentEnv env = GetEnv();
  PrintBanner("popp-cols vs CSV interchange throughput", env);
  const size_t trials = std::max<size_t>(1, std::min<size_t>(env.trials, 9));

  Rng data_rng(env.seed);
  // The full 10-attribute Figure 8 grid — the acceptance criterion is
  // stated on the 1M x 10 shape, so the smoke run shrinks rows only.
  const Dataset data =
      GenerateCovtypeLike(DefaultCovtypeSpec(env.rows), data_rng);
  const std::string csv_path = "bench_cols_input.csv";
  const std::string cols_path = "bench_cols_input.cols";
  const std::string output_path = "bench_cols_output.csv";
  if (!WriteCsv(data, csv_path).ok()) {
    std::fprintf(stderr, "cannot write %s\n", csv_path.c_str());
    return 1;
  }
  ColsStats cols_stats;
  if (!WriteCols(data, cols_path, &cols_stats).ok()) {
    std::fprintf(stderr, "cannot write %s\n", cols_path.c_str());
    return 1;
  }
  const size_t csv_bytes = ReadFileBytes(csv_path).size();

  // ---- (a) the input-parse stage alone ------------------------------
  DrainResult csv_drain, cols_drain;
  const double csv_parse_wall = BestParseWall(
      trials,
      [&] {
        return std::make_unique<stream::CsvChunkReader>(csv_path);
      },
      &csv_drain);
  const double cols_parse_wall = BestParseWall(
      trials,
      [&] {
        return std::make_unique<stream::ColsChunkReader>(cols_path);
      },
      &cols_drain);
  const bool drain_ok = csv_drain.rows == data.NumRows() &&
                        cols_drain.rows == data.NumRows() &&
                        csv_drain.checksum == cols_drain.checksum;
  const double parse_speedup =
      cols_parse_wall > 0 ? csv_parse_wall / cols_parse_wall : 0.0;

  // ---- (b) end-to-end stream-release from each format ---------------
  const uint64_t batch_checksum = BatchReleaseChecksum(data, env.seed);

  struct ReleaseCell {
    const char* format;
    double wall = 0;
    uint64_t checksum = 0;
    bool ok = false;
  };
  ReleaseCell cells[2] = {{"csv"}, {"cols"}};
  for (ReleaseCell& cell : cells) {
    auto reader = stream::MakeChunkReader(
        std::string(cell.format) == "cols" ? cols_path : csv_path);
    if (!reader.ok()) {
      std::fprintf(stderr, "MakeChunkReader failed: %s\n",
                   reader.status().ToString().c_str());
      return 1;
    }
    stream::StreamOptions options;
    options.chunk_rows = kChunkRows;
    options.seed = env.seed;
    stream::ResumableCsvChunkWriter writer(output_path);
    const auto t0 = std::chrono::steady_clock::now();
    auto plan = stream::StreamingCustodian::Release(*reader.value(), writer,
                                                    options);
    cell.wall = Seconds(t0);
    if (!plan.ok()) {
      std::fprintf(stderr, "stream release failed: %s\n",
                   plan.status().ToString().c_str());
      return 1;
    }
    cell.checksum = ReleaseChecksum(plan.value(), ReadFileBytes(output_path));
    cell.ok = cell.checksum == batch_checksum;
  }
  const bool release_ok = cells[0].ok && cells[1].ok;

  TablePrinter table({"stage", "csv s", "cols s", "speedup", "checksum ok"});
  table.AddRow({"input parse", TablePrinter::Fmt(csv_parse_wall, 3),
                TablePrinter::Fmt(cols_parse_wall, 3),
                TablePrinter::Fmt(parse_speedup, 2) + "x",
                drain_ok ? "YES" : "NO"});
  table.AddRow({"stream-release", TablePrinter::Fmt(cells[0].wall, 3),
                TablePrinter::Fmt(cells[1].wall, 3),
                TablePrinter::Fmt(
                    cells[1].wall > 0 ? cells[0].wall / cells[1].wall : 0.0,
                    2) +
                    "x",
                release_ok ? "YES" : "NO"});
  table.Print("popp-cols vs CSV (checksums must match in every row)");
  std::printf(
      "container: %zu bytes (csv %zu, ratio %.2fx); %zu dict + %zu raw "
      "columns\n",
      cols_stats.bytes, csv_bytes,
      cols_stats.bytes > 0
          ? static_cast<double>(csv_bytes) / cols_stats.bytes
          : 0.0,
      cols_stats.dict_columns, cols_stats.raw_columns);

  std::ofstream json("BENCH_cols.json");
  json << "{\n  \"experiment\": \"cols_io\",\n"
       << "  \"host\": " << HostJson() << ",\n"
       << "  \"rows\": " << data.NumRows() << ",\n"
       << "  \"attributes\": " << data.NumAttributes() << ",\n"
       << "  \"trials\": " << trials << ",\n"
       << "  \"csv_bytes\": " << csv_bytes << ",\n"
       << "  \"cols_bytes\": " << cols_stats.bytes << ",\n"
       << "  \"dict_columns\": " << cols_stats.dict_columns << ",\n"
       << "  \"raw_columns\": " << cols_stats.raw_columns << ",\n"
       << "  \"parse_wall_s\": {\"csv\": " << csv_parse_wall
       << ", \"cols\": " << cols_parse_wall << "},\n"
       << "  \"parse_speedup\": " << parse_speedup << ",\n"
       << "  \"parse_checksums_match\": " << (drain_ok ? "true" : "false")
       << ",\n"
       << "  \"release_wall_s\": {\"csv\": " << cells[0].wall
       << ", \"cols\": " << cells[1].wall << "},\n"
       << "  \"release_checksums\": {\"batch\": \"" << std::hex
       << batch_checksum << "\", \"csv\": \"" << cells[0].checksum
       << "\", \"cols\": \"" << cells[1].checksum << "\"},\n"
       << std::dec << "  \"release_checksums_match\": "
       << (release_ok ? "true" : "false") << "\n}\n";
  std::printf("wrote BENCH_cols.json (parse speedup %.2fx)\n", parse_speedup);

  std::remove(csv_path.c_str());
  std::remove(cols_path.c_str());
  std::remove(output_path.c_str());
  return (drain_ok && release_ok) ? 0 : 1;
}

}  // namespace
}  // namespace popp::bench

int main() { return popp::bench::Run(); }
