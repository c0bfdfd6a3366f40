// Experiment K1 — throughput of the compiled encode kernels.
//
// For a covertype-like rows × attributes grid, encodes the full dataset
// through (a) the interpreted per-value TransformPlan path and (b) the
// compiled SoA kernels (transform/compiled.h) at 1, 2 and hardware
// threads, reporting rows/sec and the speedup over the interpreted serial
// baseline. Every released dataset is checksummed over its raw column
// bytes; the compiled kernels promise *bit-identity* with the interpreted
// path, so any checksum divergence fails the run. Emits BENCH_encode.json
// next to the printed table.
//
// Environment: POPP_ROWS sets the grid's largest dataset (run with
// POPP_ROWS=100000 for the acceptance-scale measurement).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "experiment_common.h"
#include "parallel/exec_policy.h"
#include "transform/compiled.h"
#include "transform/plan.h"
#include "util/table.h"

namespace popp::bench {
namespace {

/// FNV-1a over the raw bytes of every released column (bit-exact: two
/// releases checksum equal iff every double matches bit for bit).
uint64_t ColumnChecksum(const Dataset& data) {
  uint64_t h = Fnv1a("");  // the FNV offset basis
  for (size_t attr = 0; attr < data.NumAttributes(); ++attr) {
    const std::vector<AttrValue>& col = data.Column(attr);
    h = Fnv1a(std::string_view(reinterpret_cast<const char*>(col.data()),
                               col.size() * sizeof(AttrValue)),
              h);
  }
  return h;
}

struct Variant {
  std::string name;
  double seconds = 0;  ///< best of the repetitions
  uint64_t checksum = 0;
};

/// Times `encode` as best-of-reps (min wall-clock) and checksums the last
/// release.
template <typename EncodeFn>
Variant Measure(const std::string& name, size_t reps, EncodeFn encode) {
  Variant v;
  v.name = name;
  v.seconds = 1e300;
  for (size_t r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    const Dataset released = encode();
    v.seconds = std::min(v.seconds, Seconds(t0));
    v.checksum = ColumnChecksum(released);
  }
  return v;
}

int Run() {
  const ExperimentEnv env = GetEnv();
  PrintBanner("Compiled encode-kernel throughput", env);

  const size_t full_rows = env.rows;
  const std::vector<size_t> row_grid = {
      std::max<size_t>(200, full_rows / 5), full_rows};
  const size_t hw = ExecPolicy::Hardware().ResolvedThreads();

  TablePrinter table({"rows", "attrs", "variant", "threads", "sec",
                      "rows/sec", "speedup", "checksum ok"});
  std::ofstream json("BENCH_encode.json");
  json << "{\n  \"experiment\": \"encode_kernel\",\n  \"host\": "
       << HostJson() << ",\n  \"cells\": [\n";
  bool first_cell = true;
  int mismatches = 0;

  for (size_t rows : row_grid) {
    // Measurement noise floor: repeat small grids more often.
    const size_t reps = rows < 20000 ? 5 : 3;
    Rng data_rng(env.seed);
    const Dataset data =
        GenerateCovtypeLike(SmallCovtypeSpec(rows), data_rng);

    Rng plan_rng(env.seed + 1);
    const TransformPlan plan = TransformPlan::Create(
        data, PaperTransform(BreakpointPolicy::kChooseMaxMP), plan_rng);
    const auto compile_t0 = std::chrono::steady_clock::now();
    const CompiledPlan compiled = CompiledPlan::Compile(plan);
    const double compile_s = Seconds(compile_t0);

    std::vector<Variant> variants;
    variants.push_back(Measure("interpreted", reps, [&] {
      return plan.EncodeDataset(data);
    }));
    std::vector<size_t> thread_grid = {1, 2};
    if (hw > 2) thread_grid.push_back(hw);
    for (size_t threads : thread_grid) {
      variants.push_back(
          Measure("compiled/" + std::to_string(threads), reps, [&] {
            return compiled.EncodeDataset(data, ExecPolicy{threads});
          }));
    }

    const Variant& base = variants.front();
    for (const Variant& v : variants) {
      const bool checksum_ok = v.checksum == base.checksum;
      if (!checksum_ok) ++mismatches;
      const double speedup = v.seconds > 0 ? base.seconds / v.seconds : 1.0;
      const double rows_per_sec =
          v.seconds > 0 ? static_cast<double>(rows) / v.seconds : 0.0;
      const size_t threads =
          v.name == "interpreted"
              ? 1
              : static_cast<size_t>(
                    std::stoul(v.name.substr(v.name.find('/') + 1)));
      table.AddRow({std::to_string(rows),
                    std::to_string(data.NumAttributes()), v.name,
                    std::to_string(threads), TablePrinter::Fmt(v.seconds, 4),
                    TablePrinter::Fmt(rows_per_sec, 0),
                    TablePrinter::Fmt(speedup, 2),
                    checksum_ok ? "YES" : "NO"});
      if (!first_cell) json << ",\n";
      first_cell = false;
      json << "    {\"rows\": " << rows << ", \"attrs\": "
           << data.NumAttributes() << ", \"variant\": \"" << v.name
           << "\", \"threads\": " << threads << ", \"seconds\": "
           << v.seconds << ", \"rows_per_sec\": " << rows_per_sec
           << ", \"speedup\": " << speedup << ", \"compile_s\": "
           << compile_s << ", \"checksum\": \"" << std::hex << v.checksum
           << std::dec << "\", \"checksum_ok\": "
           << (checksum_ok ? "true" : "false") << "}";
    }
  }
  json << "\n  ],\n  \"checksum_mismatches\": " << mismatches << "\n}\n";
  table.Print(
      "encode throughput, interpreted vs compiled (checksums must match)");
  std::printf("wrote BENCH_encode.json (%d checksum mismatches)\n",
              mismatches);
  return mismatches == 0 ? 0 : 1;
}

}  // namespace
}  // namespace popp::bench

int main() { return popp::bench::Run(); }
