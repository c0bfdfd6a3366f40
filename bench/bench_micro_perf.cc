// Experiment E12 — google-benchmark microbenchmarks of the core
// operations: transform creation/application, ChooseMaxMP scans, tree
// induction, tree decoding, attack fitting and the CRC-64 that guards
// every artifact and frame. (The paper reports 1–2 s per attribute for
// ChooseMaxMP in MATLAB on a 3 GHz Pentium.)

#include <benchmark/benchmark.h>

#include "attack/curve_fit.h"
#include "attack/knowledge.h"
#include "attack/sorting_attack.h"
#include "data/summary.h"
#include "risk/domain_risk.h"
#include "synth/covtype_like.h"
#include "transform/choose_max_mp.h"
#include "transform/plan.h"
#include "transform/tree_decode.h"
#include "tree/builder.h"
#include "util/crc64.h"

namespace popp {
namespace {

const Dataset& BenchData() {
  static const Dataset* data = [] {
    Rng rng(42);
    return new Dataset(GenerateCovtypeLike(DefaultCovtypeSpec(20000), rng));
  }();
  return *data;
}

const AttributeSummary& BenchSummary() {
  static const AttributeSummary* s = [] {
    return new AttributeSummary(
        AttributeSummary::FromDataset(BenchData(), 9));
  }();
  return *s;
}

PiecewiseOptions BenchOptions() {
  PiecewiseOptions options;
  options.policy = BreakpointPolicy::kChooseMaxMP;
  options.min_breakpoints = 20;
  return options;
}

void BM_AttributeSummary(benchmark::State& state) {
  const Dataset& data = BenchData();
  for (auto _ : state) {
    benchmark::DoNotOptimize(AttributeSummary::FromDataset(data, 9));
  }
}
BENCHMARK(BM_AttributeSummary);

void BM_ChooseMaxMP(benchmark::State& state) {
  const AttributeSummary& s = BenchSummary();
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ChooseMaxMP(s, 20, 2, rng));
  }
}
BENCHMARK(BM_ChooseMaxMP);

void BM_PiecewiseCreate(benchmark::State& state) {
  const AttributeSummary& s = BenchSummary();
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        PiecewiseTransform::Create(s, BenchOptions(), rng));
  }
}
BENCHMARK(BM_PiecewiseCreate);

void BM_PiecewiseApply(benchmark::State& state) {
  const AttributeSummary& s = BenchSummary();
  Rng rng(7);
  const PiecewiseTransform f =
      PiecewiseTransform::Create(s, BenchOptions(), rng);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.Apply(s.ValueAt(i)));
    i = (i + 1) % s.NumDistinct();
  }
}
BENCHMARK(BM_PiecewiseApply);

void BM_EncodeDataset(benchmark::State& state) {
  const Dataset& data = BenchData();
  Rng rng(7);
  const TransformPlan plan =
      TransformPlan::Create(data, BenchOptions(), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan.EncodeDataset(data));
  }
}
BENCHMARK(BM_EncodeDataset);

void BM_TreeBuild(benchmark::State& state) {
  Rng rng(11);
  const Dataset data = GenerateCovtypeLike(
      DefaultCovtypeSpec(static_cast<size_t>(state.range(0))), rng);
  const DecisionTreeBuilder builder;
  for (auto _ : state) {
    benchmark::DoNotOptimize(builder.Build(data));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TreeBuild)->Arg(10000)->Arg(20000)->Unit(benchmark::kMillisecond);

void BM_TreeBuildResort(benchmark::State& state) {
  Rng rng(11);
  const Dataset data = GenerateCovtypeLike(
      DefaultCovtypeSpec(static_cast<size_t>(state.range(0))), rng);
  BuildOptions options;
  options.algorithm = BuildOptions::Algorithm::kResort;
  const DecisionTreeBuilder builder(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(builder.Build(data));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TreeBuildResort)
    ->Arg(10000)
    ->Arg(20000)
    ->Unit(benchmark::kMillisecond);

void BM_TreeDecode(benchmark::State& state) {
  const Dataset& data = BenchData();
  Rng rng(13);
  const TransformPlan plan =
      TransformPlan::Create(data, BenchOptions(), rng);
  const DecisionTree mined =
      DecisionTreeBuilder().Build(plan.EncodeDataset(data));
  for (auto _ : state) {
    benchmark::DoNotOptimize(DecodeTreeWithData(mined, plan, data));
  }
}
BENCHMARK(BM_TreeDecode)->Unit(benchmark::kMillisecond);

void BM_PolylineFitAndEvaluate(benchmark::State& state) {
  const AttributeSummary& s = BenchSummary();
  Rng rng(17);
  const PiecewiseTransform f =
      PiecewiseTransform::Create(s, BenchOptions(), rng);
  KnowledgeOptions ko;
  ko.num_good = 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        CurveFitDomainRisk(s, f, FitMethod::kPolyline, ko, rng));
  }
}
BENCHMARK(BM_PolylineFitAndEvaluate);

void BM_SortingAttack(benchmark::State& state) {
  const AttributeSummary& s = BenchSummary();
  Rng rng(19);
  const PiecewiseTransform f =
      PiecewiseTransform::Create(s, BenchOptions(), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SortingAttackRisk(s, f, 2.0));
  }
}
BENCHMARK(BM_SortingAttack);

// CRC-64 at the sizes its callers hash: the 56-byte popp-cols header,
// 64 B to 1 KiB across the folding kernel's size threshold, the 64 KiB
// buffer shard finalize hashes files with, and the 1.83 MB body of a
// 100k-row popp-cols serve request.
void BM_Crc64(benchmark::State& state) {
  const size_t size = static_cast<size_t>(state.range(0));
  Rng rng(23);
  std::string bytes(size, '\0');
  for (char& c : bytes) c = static_cast<char>(rng.UniformInt(0, 255));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc64(bytes));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(size));
}
BENCHMARK(BM_Crc64)
    ->Arg(56)
    ->DenseRange(64, 256, 32)
    ->Arg(512)
    ->Arg(1024)
    ->Arg(64 << 10)
    ->Arg(1830000);

}  // namespace
}  // namespace popp

BENCHMARK_MAIN();
