#include <gtest/gtest.h>

#include <cmath>

#include "attack/combination.h"
#include "attack/curve_fit.h"
#include "attack/knowledge.h"
#include "data/summary.h"
#include "transform/piecewise.h"
#include "util/rng.h"

namespace popp {
namespace {

AttributeSummary LinearSummary(size_t n) {
  std::vector<ValueLabel> tuples;
  for (size_t v = 0; v < n; ++v) {
    tuples.push_back({static_cast<double>(v * 2), 0});
    tuples.push_back({static_cast<double>(v * 2), 1});
  }
  return AttributeSummary::FromTuples(std::move(tuples), 2);
}

// --------------------------------------------------------------- profiles --

TEST(KnowledgeTest, ProfileKpCounts) {
  EXPECT_EQ(GoodKpCount(HackerProfile::kIgnorant), 0u);
  EXPECT_EQ(GoodKpCount(HackerProfile::kKnowledgeable), 2u);
  EXPECT_EQ(GoodKpCount(HackerProfile::kExpert), 4u);
  EXPECT_EQ(GoodKpCount(HackerProfile::kInsider), 8u);
}

TEST(KnowledgeTest, ProfileNames) {
  EXPECT_EQ(ToString(HackerProfile::kIgnorant), "ignorant");
  EXPECT_EQ(ToString(HackerProfile::kInsider), "insider");
}

TEST(KnowledgeTest, CrackRadiusScalesWithRange) {
  const auto s = LinearSummary(101);  // values 0..200
  EXPECT_DOUBLE_EQ(CrackRadius(s, 0.02), 4.0);
  EXPECT_DOUBLE_EQ(CrackRadius(s, 0.05), 10.0);
  EXPECT_DOUBLE_EQ(CrackRadius(s, 0.0), 0.0);
}

TEST(KnowledgeTest, GoodPointsAreGood) {
  const auto s = LinearSummary(50);
  Rng rng(3);
  PiecewiseOptions options;
  const auto f = PiecewiseTransform::Create(s, options, rng);
  KnowledgeOptions ko;
  ko.num_good = 20;
  ko.radius_fraction = 0.02;
  const double rho = CrackRadius(s, ko.radius_fraction);
  const auto points = SampleKnowledgePoints(s, f, ko, rng);
  ASSERT_EQ(points.size(), 20u);
  for (const auto& kp : points) {
    // Definition 4: |nu - f^{-1}(nu')| <= rho.
    EXPECT_LE(std::fabs(kp.guessed_original - f.Inverse(kp.transformed)),
              rho + 1e-9);
  }
}

TEST(KnowledgeTest, BadPointsAreBad) {
  const auto s = LinearSummary(50);
  Rng rng(5);
  const auto f = PiecewiseTransform::Create(s, PiecewiseOptions{}, rng);
  KnowledgeOptions ko;
  ko.num_good = 0;
  ko.num_bad = 20;
  ko.radius_fraction = 0.02;
  const double rho = CrackRadius(s, ko.radius_fraction);
  const auto points = SampleKnowledgePoints(s, f, ko, rng);
  ASSERT_EQ(points.size(), 20u);
  for (const auto& kp : points) {
    EXPECT_GT(std::fabs(kp.guessed_original - f.Inverse(kp.transformed)),
              5.0 * rho);
  }
}

TEST(KnowledgeTest, ConstantAttributeHasNoRadiusToDrawIn) {
  // One distinct value makes rho 0: a good point guesses the truth and a
  // bad one misses by the 1e-9 margin alone, instead of drawing from an
  // empty range.
  const auto s = AttributeSummary::FromTuples({{5.0, 0}, {5.0, 1}}, 2);
  Rng rng(7);
  const auto f = PiecewiseTransform::Create(s, PiecewiseOptions{}, rng);
  KnowledgeOptions ko;
  ko.num_good = 3;
  ko.num_bad = 3;
  ASSERT_EQ(CrackRadius(s, ko.radius_fraction), 0.0);
  const auto points = SampleKnowledgePoints(s, f, ko, rng);
  ASSERT_EQ(points.size(), 6u);
  for (size_t k = 0; k < points.size(); ++k) {
    EXPECT_EQ(points[k].transformed, f.Apply(5.0));
    if (k < ko.num_good) {
      EXPECT_EQ(points[k].guessed_original, 5.0);
    } else {
      EXPECT_NEAR(std::fabs(points[k].guessed_original - 5.0), 1e-9, 1e-14);
    }
  }
}

// -------------------------------------------------------------- curve fit --

std::vector<KnowledgePoint> PointsOnLine(double slope, double intercept,
                                         std::vector<double> xs) {
  std::vector<KnowledgePoint> points;
  for (double x : xs) {
    points.push_back({x, slope * x + intercept});
  }
  return points;
}

TEST(CurveFitTest, IdentityCrack) {
  auto g = MakeIdentityCrack();
  EXPECT_DOUBLE_EQ(g->Guess(123.5), 123.5);
  EXPECT_EQ(g->Name(), "identity");
}

TEST(CurveFitTest, RegressionRecoversExactLine) {
  auto g = FitCurve(FitMethod::kLinearRegression,
                    PointsOnLine(2.0, -3.0, {0, 1, 5, 9}));
  for (double x : {-2.0, 0.5, 7.0, 100.0}) {
    EXPECT_NEAR(g->Guess(x), 2.0 * x - 3.0, 1e-9);
  }
  EXPECT_EQ(g->Name(), "regression");
}

TEST(CurveFitTest, RegressionMinimizesResiduals) {
  // Points not on a line: regression must match the closed-form LSQ fit.
  std::vector<KnowledgePoint> points{{0, 0}, {1, 2}, {2, 1}, {3, 3}};
  auto g = FitCurve(FitMethod::kLinearRegression, points);
  // slope = cov/var = (sum xy - n xbar ybar) / (sum xx - n xbar^2)
  // xbar=1.5, ybar=1.5; sxy = 0+2+2+9=13; sxx = 0+1+4+9=14.
  const double slope = (13.0 - 4 * 1.5 * 1.5) / (14.0 - 4 * 1.5 * 1.5);
  const double intercept = 1.5 - slope * 1.5;
  EXPECT_NEAR(g->Guess(10.0), slope * 10 + intercept, 1e-9);
}

TEST(CurveFitTest, PolylineInterpolatesThroughPoints) {
  std::vector<KnowledgePoint> points{{0, 0}, {10, 100}, {20, 50}};
  auto g = FitCurve(FitMethod::kPolyline, points);
  EXPECT_DOUBLE_EQ(g->Guess(0), 0);
  EXPECT_DOUBLE_EQ(g->Guess(10), 100);
  EXPECT_DOUBLE_EQ(g->Guess(20), 50);
  EXPECT_DOUBLE_EQ(g->Guess(5), 50);    // halfway up the first segment
  EXPECT_DOUBLE_EQ(g->Guess(15), 75);   // halfway down the second
}

TEST(CurveFitTest, PolylineExtrapolatesEndSegments) {
  std::vector<KnowledgePoint> points{{0, 0}, {10, 100}, {20, 50}};
  auto g = FitCurve(FitMethod::kPolyline, points);
  EXPECT_DOUBLE_EQ(g->Guess(-5), -50);  // slope 10 extended left
  EXPECT_DOUBLE_EQ(g->Guess(30), 0);    // slope -5 extended right
}

TEST(CurveFitTest, SplinePassesThroughKnots) {
  std::vector<KnowledgePoint> points{{0, 1}, {5, 9}, {10, 4}, {15, 16}};
  auto g = FitCurve(FitMethod::kSpline, points);
  for (const auto& p : points) {
    EXPECT_NEAR(g->Guess(p.transformed), p.guessed_original, 1e-9);
  }
  EXPECT_EQ(g->Name(), "spline");
}

TEST(CurveFitTest, SplineIsSmoothOnLinearData) {
  // A natural spline through collinear points is that line.
  auto g = FitCurve(FitMethod::kSpline,
                    PointsOnLine(1.5, 2.0, {0, 4, 8, 12, 16}));
  for (double x : {1.0, 6.0, 11.0, 14.0}) {
    EXPECT_NEAR(g->Guess(x), 1.5 * x + 2.0, 1e-9);
  }
}

TEST(CurveFitTest, SplineExtrapolatesLinearly) {
  auto g = FitCurve(FitMethod::kSpline,
                    PointsOnLine(2.0, 0.0, {0, 1, 2, 3}));
  EXPECT_NEAR(g->Guess(-1), -2.0, 1e-9);
  EXPECT_NEAR(g->Guess(10), 20.0, 1e-9);
}

TEST(CurveFitTest, DegenerateInputs) {
  // 0 points -> identity.
  auto g0 = FitCurve(FitMethod::kSpline, {});
  EXPECT_DOUBLE_EQ(g0->Guess(7), 7);
  // 1 point -> constant.
  auto g1 = FitCurve(FitMethod::kPolyline, {{5, 42}});
  EXPECT_DOUBLE_EQ(g1->Guess(-100), 42);
  EXPECT_DOUBLE_EQ(g1->Guess(100), 42);
  // 2 points -> chord for spline.
  auto g2 = FitCurve(FitMethod::kSpline, {{0, 0}, {10, 20}});
  EXPECT_NEAR(g2->Guess(5), 10, 1e-9);
}

TEST(CurveFitTest, DuplicateXAveraged) {
  auto g = FitCurve(FitMethod::kPolyline, {{5, 10}, {5, 20}, {10, 30}});
  EXPECT_DOUBLE_EQ(g->Guess(5), 15);
}

TEST(CurveFitTest, VerticalPointsFallBackToConstant) {
  // All points share one x: regression denominator is zero.
  auto g = FitCurve(FitMethod::kLinearRegression, {{5, 10}, {5, 20}});
  EXPECT_DOUBLE_EQ(g->Guess(0), 15);
  EXPECT_DOUBLE_EQ(g->Guess(99), 15);
}

TEST(CurveFitTest, FitMethodNames) {
  EXPECT_EQ(ToString(FitMethod::kLinearRegression), "regression");
  EXPECT_EQ(ToString(FitMethod::kPolyline), "polyline");
  EXPECT_EQ(ToString(FitMethod::kSpline), "spline");
}

// ------------------------------------------------------------ combination --

TEST(CombinationTest, RegionsPartitionTotal) {
  const std::vector<bool> a{1, 1, 0, 0, 1, 0, 1, 0};
  const std::vector<bool> b{1, 0, 1, 0, 1, 1, 0, 0};
  const std::vector<bool> c{1, 0, 0, 1, 0, 1, 1, 0};
  const VennCounts v = CombineCrackSets(a, b, c);
  EXPECT_EQ(v.total, 8u);
  EXPECT_EQ(v.only_a + v.only_b + v.only_c + v.ab + v.ac + v.bc + v.abc +
                v.none,
            v.total);
  EXPECT_EQ(v.abc, 1u);   // item 0
  EXPECT_EQ(v.none, 1u);  // item 7
  EXPECT_EQ(v.InA(), 4u);
  EXPECT_EQ(v.InB(), 4u);
  EXPECT_EQ(v.InC(), 4u);
}

TEST(CombinationTest, RiskAggregates) {
  // 4 items: one cracked by all, one by two, one by one, one by none.
  const std::vector<bool> a{1, 1, 1, 0};
  const std::vector<bool> b{1, 1, 0, 0};
  const std::vector<bool> c{1, 0, 0, 0};
  const VennCounts v = CombineCrackSets(a, b, c);
  EXPECT_DOUBLE_EQ(v.UnionRisk(), 0.75);
  EXPECT_DOUBLE_EQ(v.ExpectedRisk(), (3 + 2 + 1) / (3.0 * 4.0));
  EXPECT_DOUBLE_EQ(v.MajorityRisk(), 0.5);
}

TEST(CombinationTest, EmptySets) {
  const VennCounts v = CombineCrackSets({}, {}, {});
  EXPECT_EQ(v.total, 0u);
  EXPECT_DOUBLE_EQ(v.UnionRisk(), 0.0);
  EXPECT_DOUBLE_EQ(v.ExpectedRisk(), 0.0);
  EXPECT_DOUBLE_EQ(v.MajorityRisk(), 0.0);
}

TEST(CombinationTest, ToStringShowsRegions) {
  const VennCounts v =
      CombineCrackSets({1, 0}, {0, 0}, {0, 1});
  const std::string s = v.ToString("regr", "spline", "poly");
  EXPECT_NE(s.find("only regr"), std::string::npos);
  EXPECT_NE(s.find("50.0%"), std::string::npos);
}

}  // namespace
}  // namespace popp
