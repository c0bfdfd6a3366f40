#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "core/custodian.h"
#include "core/recipe.h"
#include "core/report.h"
#include "parallel/exec_policy.h"
#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"
#include "risk/domain_risk.h"
#include "risk/trials.h"
#include "synth/covtype_like.h"
#include "synth/presets.h"
#include "transform/serialize.h"
#include "tree/builder.h"
#include "tree/compare.h"

namespace popp {
namespace {

// ---------------------------------------------------------------------------
// ExecPolicy

TEST(ExecPolicyTest, DefaultIsSerial) {
  const ExecPolicy policy;
  EXPECT_EQ(policy.ResolvedThreads(), 1u);
  EXPECT_TRUE(policy.IsSerial());
}

TEST(ExecPolicyTest, ZeroResolvesToHardwareConcurrency) {
  const ExecPolicy policy = ExecPolicy::Hardware();
  EXPECT_GE(policy.ResolvedThreads(), 1u);
}

TEST(ExecPolicyTest, ExplicitCountIsKept) {
  const ExecPolicy policy{7};
  EXPECT_EQ(policy.ResolvedThreads(), 7u);
  EXPECT_FALSE(policy.IsSerial());
}

// ---------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPoolTest, ForEachRunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ForEach(kN, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ZeroTasksIsANoOp) {
  ThreadPool pool(3);
  bool ran = false;
  pool.ForEach(0, [&](size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInOrder) {
  ThreadPool pool(1);
  std::vector<size_t> order;
  pool.ForEach(5, [&](size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, SubmitReturnsAWaitableFuture) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  auto f1 = pool.Submit([&] { done.fetch_add(1); });
  auto f2 = pool.Submit([&] { done.fetch_add(1); });
  f1.get();
  f2.get();
  EXPECT_EQ(done.load(), 2);
}

TEST(ThreadPoolTest, SubmitFutureRethrowsTaskException) {
  ThreadPool pool(2);
  auto f = pool.Submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPoolTest, ForEachRethrowsSmallestFailingIndex) {
  ThreadPool pool(4);
  // Several indices fail; the rethrown exception must deterministically be
  // the smallest one's, no matter which worker hit it first.
  for (int repeat = 0; repeat < 10; ++repeat) {
    try {
      pool.ForEach(64, [&](size_t i) {
        if (i % 7 == 3) {  // fails at 3, 10, 17, ...
          throw std::runtime_error("failed at " + std::to_string(i));
        }
      });
      FAIL() << "ForEach did not throw";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "failed at 3");
    }
  }
}

TEST(ThreadPoolTest, ForEachFinishesAllBodiesDespiteFailure) {
  ThreadPool pool(4);
  constexpr size_t kN = 100;
  std::vector<std::atomic<int>> hits(kN);
  try {
    pool.ForEach(kN, [&](size_t i) {
      hits[i].fetch_add(1);
      if (i == 0) throw std::runtime_error("early");
    });
    FAIL() << "ForEach did not throw";
  } catch (const std::runtime_error&) {
  }
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, NestedForEachRunsInlineWithoutDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> inner_runs{0};
  pool.ForEach(4, [&](size_t) {
    // A worker iterating on its own pool must not block on the queue.
    pool.ForEach(8, [&](size_t) { inner_runs.fetch_add(1); });
  });
  EXPECT_EQ(inner_runs.load(), 4 * 8);
}

TEST(ThreadPoolTest, NestedSubmitRunsInlineWithoutDeadlock) {
  ThreadPool pool(1);  // a single worker deadlocks unless submit inlines
  std::atomic<bool> inner_ran{false};
  pool.Submit([&] { pool.Submit([&] { inner_ran = true; }).get(); }).get();
  EXPECT_TRUE(inner_ran.load());
}

TEST(ParallelForTest, SerialPolicyNeedsNoPool) {
  std::vector<int> out(10, 0);
  ParallelFor(ExecPolicy::Serial(), out.size(), [&](size_t i) {
    out[i] = static_cast<int>(i);
  });
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i));
  }
}

TEST(ParallelForTest, MapReduceFoldsInIndexOrder) {
  // A non-commutative fold exposes any out-of-order reduction.
  const std::string serial = ParallelMapReduce<std::string>(
      ExecPolicy::Serial(), 8, std::string(),
      [](size_t i) { return std::string(1, static_cast<char>('a' + i)); },
      [](std::string acc, std::string x) { return acc + x; });
  const std::string parallel = ParallelMapReduce<std::string>(
      ExecPolicy{4}, 8, std::string(),
      [](size_t i) { return std::string(1, static_cast<char>('a' + i)); },
      [](std::string acc, std::string x) { return acc + x; });
  EXPECT_EQ(serial, "abcdefgh");
  EXPECT_EQ(parallel, serial);
}

// ---------------------------------------------------------------------------
// Serial-vs-parallel bit equality of the wired subsystems

constexpr size_t kThreadCounts[] = {1, 2, 7};

Dataset TestData(size_t rows = 400, uint64_t seed = 77) {
  Rng rng(seed);
  return GenerateCovtypeLike(SmallCovtypeSpec(rows), rng);
}

TEST(ParallelEqualityTest, PlanSelectionIsBitIdentical) {
  const Dataset data = TestData();
  PiecewiseOptions options;
  options.min_breakpoints = 12;
  Rng serial_rng(31);
  const TransformPlan serial =
      TransformPlan::Create(data, options, serial_rng);
  const std::string serial_key = SerializePlan(serial);
  for (size_t threads : kThreadCounts) {
    Rng rng(31);
    const TransformPlan parallel =
        TransformPlan::Create(data, options, rng, ExecPolicy{threads});
    EXPECT_EQ(SerializePlan(parallel), serial_key)
        << "plan differs at " << threads << " threads";
    // The caller's generator is advanced identically (by exactly one fork)
    // regardless of the thread count.
    Rng reference(31);
    reference.Fork();
    EXPECT_EQ(rng.Next(), reference.Next());
  }
}

TEST(ParallelEqualityTest, CustodianPipelineIsBitIdentical) {
  const Dataset data = TestData();
  CustodianOptions serial_options;
  serial_options.seed = 5;
  serial_options.transform.min_breakpoints = 8;
  const Custodian serial(data, serial_options);
  const Dataset serial_release = serial.Release();
  const DecisionTree serial_direct = serial.MineDirectly();
  const DecisionTree serial_mined = serial.MineReleased();
  for (size_t threads : kThreadCounts) {
    CustodianOptions options = serial_options;
    options.exec = ExecPolicy{threads};
    const Custodian parallel(data, options);
    EXPECT_EQ(parallel.Release(), serial_release)
        << "release differs at " << threads << " threads";
    EXPECT_TRUE(ExactlyEqual(parallel.MineDirectly(), serial_direct))
        << "direct tree differs at " << threads << " threads";
    EXPECT_TRUE(ExactlyEqual(parallel.MineReleased(), serial_mined))
        << "mined tree differs at " << threads << " threads";
    std::string detail;
    EXPECT_TRUE(parallel.VerifyNoOutcomeChange(&detail)) << detail;
  }
}

TEST(ParallelEqualityTest, TreeBuildIsBitIdenticalForAllAlgorithms) {
  const Dataset data = TestData(3000, 3);
  for (auto algorithm : {BuildOptions::Algorithm::kResort,
                         BuildOptions::Algorithm::kFrontier}) {
    BuildOptions options;
    options.algorithm = algorithm;
    const DecisionTree serial = DecisionTreeBuilder(options).Build(data);
    for (size_t threads : kThreadCounts) {
      const DecisionTree parallel =
          DecisionTreeBuilder(options, ExecPolicy{threads}).Build(data);
      EXPECT_TRUE(ExactlyEqual(serial, parallel))
          << "tree differs at " << threads << " threads — "
          << DescribeDifference(serial, parallel);
    }
  }
}

TEST(ParallelEqualityTest, CollectTrialsIsBitIdentical) {
  const auto trial = [](Rng& rng) {
    double acc = 0;
    for (int i = 0; i < 50; ++i) acc += rng.Gaussian();
    return acc;
  };
  const std::vector<double> serial = CollectTrials(33, 99, trial);
  for (size_t threads : kThreadCounts) {
    EXPECT_EQ(CollectTrials(33, 99, trial, ExecPolicy{threads}), serial)
        << "trial vector differs at " << threads << " threads";
  }
  // The compatibility spelling routes to the same streams.
  EXPECT_EQ(CollectTrialsParallel(33, 99, trial, 3), serial);
}

TEST(ParallelEqualityTest, MedianDomainRiskIsBitIdentical) {
  const Dataset data = TestData(250, 11);
  const AttributeSummary summary = AttributeSummary::FromDataset(data, 0);
  DomainRiskExperiment experiment;
  experiment.num_trials = 15;
  experiment.knowledge.num_good = 4;
  const double serial = MedianDomainRisk(summary, experiment);
  for (size_t threads : kThreadCounts) {
    DomainRiskExperiment parallel = experiment;
    parallel.exec = ExecPolicy{threads};
    EXPECT_EQ(MedianDomainRisk(summary, parallel), serial)
        << "median differs at " << threads << " threads";
  }
}

TEST(ParallelEqualityTest, RiskReportIsBitIdentical) {
  const Dataset data = TestData(200, 21);
  CustodianOptions options;
  options.seed = 4;
  const Custodian custodian(data, options);
  ReportOptions report_options;
  report_options.num_trials = 5;
  const auto serial = BuildRiskReport(custodian, report_options);
  const std::string serial_text = RenderRiskReport(serial);
  for (size_t threads : {size_t{3}, size_t{7}}) {
    ReportOptions parallel = report_options;
    parallel.exec = ExecPolicy{threads};
    EXPECT_EQ(RenderRiskReport(BuildRiskReport(custodian, parallel)),
              serial_text)
        << "report differs at " << threads << " threads";
  }
}

TEST(ParallelEqualityTest, HardeningDecisionsAreBitIdentical) {
  const Dataset data = TestData(200, 23);
  HardeningTargets targets;
  targets.trials = 5;
  targets.max_breakpoints = 32;
  const auto serial =
      RecommendPerAttributeOptions(data, PiecewiseOptions{}, targets, 2);
  const std::string serial_text = RenderHardeningDecisions(data, serial);
  HardeningTargets parallel = targets;
  parallel.exec = ExecPolicy{5};
  const auto decisions =
      RecommendPerAttributeOptions(data, PiecewiseOptions{}, parallel, 2);
  EXPECT_EQ(RenderHardeningDecisions(data, decisions), serial_text);
}

// ---------------------------------------------------------------------------
// The indexed-stream contract of the trial harness (regression: trials
// used to share one mutating generator, so a trial's stream depended on
// every earlier fork).

TEST(TrialStreamTest, TrialOutputIsIndependentOfTrialCount) {
  const auto trial = [](Rng& rng) { return rng.Uniform01(); };
  const std::vector<double> one = CollectTrials(1, 17, trial);
  const std::vector<double> ten = CollectTrials(10, 17, trial);
  const std::vector<double> hundred = CollectTrials(100, 17, trial);
  EXPECT_EQ(one[0], ten[0]);
  EXPECT_EQ(ten[0], hundred[0]);
  for (size_t t = 0; t < ten.size(); ++t) {
    EXPECT_EQ(ten[t], hundred[t]) << "trial " << t;
  }
}

TEST(TrialStreamTest, DistinctTrialsDrawDistinctStreams) {
  const auto trial = [](Rng& rng) { return rng.Uniform01(); };
  const std::vector<double> values = CollectTrials(50, 123, trial);
  for (size_t a = 0; a < values.size(); ++a) {
    for (size_t b = a + 1; b < values.size(); ++b) {
      EXPECT_NE(values[a], values[b]) << "trials " << a << " and " << b;
    }
  }
}

}  // namespace
}  // namespace popp
