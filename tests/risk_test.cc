#include <gtest/gtest.h>

#include "attack/curve_fit.h"
#include "data/summary.h"
#include "risk/crack.h"
#include "risk/domain_risk.h"
#include "risk/pattern_risk.h"
#include "risk/subspace_risk.h"
#include "risk/trials.h"
#include "synth/covtype_like.h"
#include "synth/presets.h"
#include "transform/plan.h"
#include "tree/builder.h"

namespace popp {
namespace {

AttributeSummary MixedSummary(size_t n, double step = 2.0) {
  std::vector<ValueLabel> tuples;
  for (size_t v = 0; v < n; ++v) {
    tuples.push_back({static_cast<double>(v) * step, 0});
    tuples.push_back({static_cast<double>(v) * step, 1});
  }
  return AttributeSummary::FromTuples(std::move(tuples), 2);
}

// ----------------------------------------------------------------- crack --

TEST(CrackTest, Predicate) {
  EXPECT_TRUE(IsCrack(10.0, 10.0, 0.0));
  EXPECT_TRUE(IsCrack(9.0, 10.0, 1.0));
  EXPECT_TRUE(IsCrack(11.0, 10.0, 1.0));
  EXPECT_FALSE(IsCrack(11.5, 10.0, 1.0));
  EXPECT_FALSE(IsCrack(8.0, 10.0, 1.9));
}

// ----------------------------------------------------------- domain risk --

TEST(DomainRiskTest, PerfectCrackFunctionScoresOne) {
  const auto s = MixedSummary(50);
  Rng rng(3);
  const auto f = PiecewiseTransform::Create(s, PiecewiseOptions{}, rng);

  // The omniscient "hacker": inverts the actual transform.
  class Oracle : public CrackFunction {
   public:
    explicit Oracle(const PiecewiseTransform& f) : f_(f) {}
    AttrValue Guess(AttrValue y) const override { return f_.Inverse(y); }
    std::string Name() const override { return "oracle"; }

   private:
    const PiecewiseTransform& f_;
  } oracle(f);

  // Tiny radius absorbing float round-off of Inverse(Apply(v)).
  const auto result = DomainDisclosureRisk(s, f, oracle, 1e-6);
  EXPECT_DOUBLE_EQ(result.risk, 1.0);
  EXPECT_EQ(result.cracks, s.NumDistinct());
}

TEST(DomainRiskTest, HopelessCrackFunctionScoresZero) {
  const auto s = MixedSummary(50);
  Rng rng(5);
  const auto f = PiecewiseTransform::Create(s, PiecewiseOptions{}, rng);
  class FarOff : public CrackFunction {
   public:
    AttrValue Guess(AttrValue) const override { return 1e9; }
    std::string Name() const override { return "faroff"; }
  } far_off;
  EXPECT_DOUBLE_EQ(DomainDisclosureRisk(s, f, far_off, 5.0).risk, 0.0);
}

TEST(DomainRiskTest, CrackVectorAlignsWithValues) {
  const auto s = MixedSummary(20);
  Rng rng(7);
  const auto f = PiecewiseTransform::Create(s, PiecewiseOptions{}, rng);
  auto identity = MakeIdentityCrack();
  const auto v = DomainCrackVector(s, f, *identity, 1.0);
  EXPECT_EQ(v.size(), s.NumDistinct());
}

TEST(DomainRiskTest, ExpertBeatsIgnorant) {
  // More knowledge points -> higher (or equal) median disclosure.
  Rng data_rng(9);
  const Dataset d = GenerateCovtypeLike(SmallCovtypeSpec(1500), data_rng);
  const auto s = AttributeSummary::FromDataset(d, 1);  // the worst-case attr

  DomainRiskExperiment ignorant;
  ignorant.transform_options.min_breakpoints = 10;
  ignorant.knowledge.num_good = 0;
  ignorant.num_trials = 21;
  const double risk_ignorant = MedianDomainRisk(s, ignorant);

  DomainRiskExperiment expert = ignorant;
  expert.knowledge.num_good = 4;
  const double risk_expert = MedianDomainRisk(s, expert);

  EXPECT_GE(risk_expert, risk_ignorant);
}

TEST(DomainRiskTest, BreakpointsReduceCurveFitRisk) {
  // The Figure 9 effect: a single monotone piece is far easier to fit
  // through 4 knowledge points than 20+ random pieces.
  Rng data_rng(11);
  const Dataset d = GenerateCovtypeLike(SmallCovtypeSpec(1500), data_rng);
  const auto s = AttributeSummary::FromDataset(d, 0);

  DomainRiskExperiment no_bp;
  no_bp.transform_options.policy = BreakpointPolicy::kNone;
  no_bp.knowledge.num_good = 4;
  no_bp.num_trials = 21;
  const double risk_no_bp = MedianDomainRisk(s, no_bp);

  DomainRiskExperiment bp = no_bp;
  bp.transform_options.policy = BreakpointPolicy::kChooseBP;
  bp.transform_options.min_breakpoints = 20;
  const double risk_bp = MedianDomainRisk(s, bp);

  EXPECT_LT(risk_bp, risk_no_bp);
}

TEST(DomainRiskTest, IgnorantHackerRarelyCracks) {
  Rng data_rng(13);
  const Dataset d = GenerateCovtypeLike(SmallCovtypeSpec(1500), data_rng);
  const auto s = AttributeSummary::FromDataset(d, 0);
  DomainRiskExperiment e;
  e.transform_options.min_breakpoints = 20;
  e.knowledge.num_good = 0;
  e.num_trials = 21;
  EXPECT_LT(MedianDomainRisk(s, e), 0.10);
}

// --------------------------------------------------------- subspace risk --

TEST(SubspaceRiskTest, SingletonMatchesDomainRiskOnTupleBasis) {
  Rng data_rng(17);
  const Dataset d = GenerateCovtypeLike(SmallCovtypeSpec(600), data_rng);
  Rng rng(19);
  const TransformPlan plan =
      TransformPlan::Create(d, PiecewiseOptions{}, rng);
  auto identity = MakeIdentityCrack();
  const auto result = SubspaceAssociationRisk(
      d, plan, {0}, {identity.get()}, {1e18});
  // With an infinite radius everything cracks.
  EXPECT_DOUBLE_EQ(result.risk, 1.0);
  EXPECT_EQ(result.total, d.NumRows());
}

TEST(SubspaceRiskTest, AssociationRiskAtMostMinMarginal) {
  // Cracking a pair requires cracking both coordinates: the association
  // risk can never exceed either marginal risk.
  Rng data_rng(23);
  const Dataset d = GenerateCovtypeLike(SmallCovtypeSpec(800), data_rng);
  Rng rng(29);
  PiecewiseOptions options;
  options.min_breakpoints = 10;
  const TransformPlan plan = TransformPlan::Create(d, options, rng);

  KnowledgeOptions ko;
  ko.num_good = 4;
  Rng attack_rng(31);
  const auto pair = CurveFitSubspaceRisk(d, plan, {0, 1},
                                         FitMethod::kPolyline, ko,
                                         attack_rng);
  Rng attack_rng2(31);
  const auto single0 = CurveFitSubspaceRisk(d, plan, {0},
                                            FitMethod::kPolyline, ko,
                                            attack_rng2);
  EXPECT_LE(pair.risk, single0.risk + 0.05);
}

TEST(SubspaceRiskTest, LargerSubspaceNoRiskier) {
  Rng data_rng(37);
  const Dataset d = GenerateCovtypeLike(SmallCovtypeSpec(800), data_rng);
  Rng rng(41);
  PiecewiseOptions options;
  options.min_breakpoints = 10;
  const TransformPlan plan = TransformPlan::Create(d, options, rng);
  auto identity = MakeIdentityCrack();
  // Fixed crack function and radii: the triple risk is at most the pair
  // risk, which is at most the single risk (monotone in subset order).
  std::vector<const CrackFunction*> cracks1{identity.get()};
  std::vector<const CrackFunction*> cracks2{identity.get(), identity.get()};
  std::vector<const CrackFunction*> cracks3{identity.get(), identity.get(),
                                            identity.get()};
  const double rho0 = 30.0, rho1 = 20.0, rho2 = 40.0;
  const auto r1 = SubspaceAssociationRisk(d, plan, {0}, cracks1, {rho0});
  const auto r2 =
      SubspaceAssociationRisk(d, plan, {0, 1}, cracks2, {rho0, rho1});
  const auto r3 = SubspaceAssociationRisk(d, plan, {0, 1, 2}, cracks3,
                                          {rho0, rho1, rho2});
  EXPECT_LE(r2.risk, r1.risk);
  EXPECT_LE(r3.risk, r2.risk);
}

// ---------------------------------------------------------- pattern risk --

TEST(PatternRiskTest, OracleCracksAllPaths) {
  Rng data_rng(43);
  const Dataset d = GenerateCovtypeLike(SmallCovtypeSpec(600), data_rng);
  Rng rng(47);
  const TransformPlan plan =
      TransformPlan::Create(d, PiecewiseOptions{}, rng);
  const DecisionTree tprime =
      DecisionTreeBuilder().Build(plan.EncodeDataset(d));

  class Oracle : public CrackFunction {
   public:
    Oracle(const TransformPlan& plan, size_t attr)
        : plan_(plan), attr_(attr) {}
    AttrValue Guess(AttrValue y) const override {
      return plan_.transform(attr_).InverseThreshold(y).value;
    }
    std::string Name() const override { return "oracle"; }

   private:
    const TransformPlan& plan_;
    size_t attr_;
  };
  std::vector<std::unique_ptr<CrackFunction>> owned;
  std::vector<const CrackFunction*> cracks;
  std::vector<double> rhos;
  for (size_t a = 0; a < d.NumAttributes(); ++a) {
    owned.push_back(std::make_unique<Oracle>(plan, a));
    cracks.push_back(owned.back().get());
    rhos.push_back(1e-6);
  }
  const auto result = PatternDisclosureRisk(tprime, plan, cracks, rhos);
  EXPECT_DOUBLE_EQ(result.risk, 1.0);
  EXPECT_EQ(result.total, tprime.Paths().size());
}

TEST(PatternRiskTest, HistogramAccountsForAllPaths) {
  Rng data_rng(53);
  const Dataset d = GenerateCovtypeLike(SmallCovtypeSpec(600), data_rng);
  Rng rng(59);
  const TransformPlan plan =
      TransformPlan::Create(d, PiecewiseOptions{}, rng);
  const DecisionTree tprime =
      DecisionTreeBuilder().Build(plan.EncodeDataset(d));
  KnowledgeOptions ko;
  ko.num_good = 8;
  ko.radius_fraction = 0.05;
  Rng attack_rng(61);
  const auto result = CurveFitPatternRisk(tprime, d, plan,
                                          FitMethod::kPolyline, ko,
                                          attack_rng);
  size_t histogram_total = 0;
  for (const auto& [len, count] : result.paths_by_length) {
    histogram_total += count;
  }
  EXPECT_EQ(histogram_total, result.total);
  size_t crack_total = 0;
  for (const auto& [len, count] : result.cracks_by_length) {
    crack_total += count;
  }
  EXPECT_EQ(crack_total, result.cracks);
}

TEST(PatternRiskTest, LongPathsNearlyNeverCrack) {
  // Section 6.4: cracking a path requires cracking every threshold on it;
  // with realistic hacker knowledge the per-threshold probability is well
  // below 1, so long paths are safe.
  Rng data_rng(67);
  const Dataset d = GenerateCovtypeLike(SmallCovtypeSpec(1200), data_rng);
  Rng rng(71);
  PiecewiseOptions options;
  options.min_breakpoints = 15;
  const TransformPlan plan = TransformPlan::Create(d, options, rng);
  const DecisionTree tprime =
      DecisionTreeBuilder().Build(plan.EncodeDataset(d));
  KnowledgeOptions ko;
  ko.num_good = 4;
  Rng attack_rng(73);
  const auto result = CurveFitPatternRisk(tprime, d, plan,
                                          FitMethod::kPolyline, ko,
                                          attack_rng);
  for (const auto& [len, count] : result.cracks_by_length) {
    if (len >= 5) {
      EXPECT_EQ(count, 0u) << "a length-" << len << " path was cracked";
    }
  }
}

// ---------------------------------------------------------------- trials --

TEST(TrialsTest, CollectReturnsRequestedCount) {
  const auto values =
      CollectTrials(17, 3, [](Rng& rng) { return rng.Uniform01(); });
  EXPECT_EQ(values.size(), 17u);
}

TEST(TrialsTest, DeterministicAcrossRuns) {
  auto trial = [](Rng& rng) { return rng.Uniform01(); };
  EXPECT_EQ(CollectTrials(9, 5, trial), CollectTrials(9, 5, trial));
  EXPECT_NE(CollectTrials(9, 5, trial), CollectTrials(9, 6, trial));
}

TEST(TrialsTest, TrialsAreIndependentStreams) {
  const auto values =
      CollectTrials(50, 7, [](Rng& rng) { return rng.Uniform01(); });
  // All distinct with overwhelming probability.
  std::set<double> uniq(values.begin(), values.end());
  EXPECT_EQ(uniq.size(), values.size());
}

TEST(TrialsTest, ParallelMatchesSequentialBitForBit) {
  auto trial = [](Rng& rng) { return rng.Uniform01() + rng.Uniform01(); };
  const auto sequential = CollectTrials(40, 11, trial);
  for (size_t threads : {1u, 2u, 8u}) {
    EXPECT_EQ(CollectTrials(40, 11, trial, ExecPolicy{threads}), sequential)
        << threads << " threads";
  }
  // All hardware threads too.
  EXPECT_EQ(CollectTrials(40, 11, trial, ExecPolicy::Hardware()), sequential);
}

TEST(TrialsTest, ParallelHandlesFewerTrialsThanThreads) {
  auto trial = [](Rng& rng) { return rng.Uniform01(); };
  EXPECT_EQ(CollectTrials(3, 5, trial, ExecPolicy{16}).size(), 3u);
}

TEST(TrialsTest, ParallelRunsRealWorkload) {
  // A trial that actually exercises library code under concurrency.
  Rng data_rng(71);
  const Dataset d = GenerateCovtypeLike(SmallCovtypeSpec(800), data_rng);
  const auto s = AttributeSummary::FromDataset(d, 0);
  auto trial = [&s](Rng& rng) {
    PiecewiseOptions options;
    options.min_breakpoints = 8;
    const auto f = PiecewiseTransform::Create(s, options, rng);
    KnowledgeOptions ko;
    ko.num_good = 4;
    return CurveFitDomainRisk(s, f, FitMethod::kPolyline, ko, rng).risk;
  };
  EXPECT_EQ(CollectTrials(24, 3, trial, ExecPolicy{4}),
            CollectTrials(24, 3, trial));
}

TEST(TrialsTest, MedianAndSummaryConsistent) {
  size_t counter = 0;
  auto trial = [&counter](Rng&) {
    return static_cast<double>(counter++ % 5);
  };
  EXPECT_DOUBLE_EQ(MedianOverTrials(25, 1, trial), 2.0);
  counter = 0;
  const Summary s = SummarizeTrials(25, 1, trial);
  EXPECT_EQ(s.n, 25u);
  EXPECT_DOUBLE_EQ(s.median, 2.0);
}

}  // namespace
}  // namespace popp
