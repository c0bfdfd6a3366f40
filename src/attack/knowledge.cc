#include "attack/knowledge.h"

#include "util/status.h"

namespace popp {

std::string ToString(HackerProfile profile) {
  switch (profile) {
    case HackerProfile::kIgnorant:
      return "ignorant";
    case HackerProfile::kKnowledgeable:
      return "knowledgeable";
    case HackerProfile::kExpert:
      return "expert";
    case HackerProfile::kInsider:
      return "insider";
  }
  return "?";
}

size_t GoodKpCount(HackerProfile profile) {
  return static_cast<size_t>(profile);
}

double CrackRadius(const AttributeSummary& original, double radius_fraction) {
  POPP_CHECK_MSG(radius_fraction >= 0.0, "negative radius fraction");
  POPP_CHECK(!original.empty());
  const double width = original.MaxValue() - original.MinValue();
  return radius_fraction * width;
}

namespace {

/// Shared sampler: any transform type with Apply works; the interpreted and
/// compiled entry points produce identical points because the RNG draw
/// sequence is the same and the compiled Apply is bit-identical.
template <typename TransformT>
std::vector<KnowledgePoint> SampleKnowledgePointsImpl(
    const AttributeSummary& original, const TransformT& transform,
    const KnowledgeOptions& options, Rng& rng) {
  POPP_CHECK(!original.empty());
  const double rho = CrackRadius(original, options.radius_fraction);
  const size_t n = original.NumDistinct();

  std::vector<KnowledgePoint> points;
  points.reserve(options.num_good + options.num_bad);

  auto sample_location = [&]() {
    const size_t i = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(n) - 1));
    return original.ValueAt(i);
  };

  for (size_t k = 0; k < options.num_good; ++k) {
    const AttrValue truth = sample_location();
    KnowledgePoint kp;
    kp.transformed = transform.Apply(truth);
    // At rho = 0 (one distinct value) a good point guesses the truth.
    kp.guessed_original = truth + (rho > 0.0 ? rng.Uniform(-rho, rho) : 0.0);
    points.push_back(kp);
  }
  for (size_t k = 0; k < options.num_bad; ++k) {
    const AttrValue truth = sample_location();
    KnowledgePoint kp;
    kp.transformed = transform.Apply(truth);
    const double side = rng.Bernoulli(0.5) ? 1.0 : -1.0;
    // Strictly worse than 5 rho (Definition of a bad KP in Section 6.1);
    // at rho = 0 it misses by the margin alone.
    const double miss =
        (rho > 0.0 ? rng.Uniform(5.0 * rho, 15.0 * rho) : 0.0) + 1e-9;
    kp.guessed_original = truth + side * miss;
    points.push_back(kp);
  }
  return points;
}

}  // namespace

std::vector<KnowledgePoint> SampleKnowledgePoints(
    const AttributeSummary& original, const PiecewiseTransform& transform,
    const KnowledgeOptions& options, Rng& rng) {
  return SampleKnowledgePointsImpl(original, transform, options, rng);
}

std::vector<KnowledgePoint> SampleKnowledgePoints(
    const AttributeSummary& original, const CompiledTransform& transform,
    const KnowledgeOptions& options, Rng& rng) {
  return SampleKnowledgePointsImpl(original, transform, options, rng);
}

}  // namespace popp
