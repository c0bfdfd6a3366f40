#include "transform/plan.h"

#include <sstream>

#include "data/summary.h"
#include "parallel/parallel_for.h"
#include "util/status.h"

namespace popp {

TransformPlan TransformPlan::Create(const Dataset& data,
                                    const PiecewiseOptions& options,
                                    Rng& rng, const ExecPolicy& exec) {
  return CreatePerAttribute(
      data, std::vector<PiecewiseOptions>(data.NumAttributes(), options),
      rng, exec);
}

TransformPlan TransformPlan::CreatePerAttribute(
    const Dataset& data, const std::vector<PiecewiseOptions>& options,
    Rng& rng, const ExecPolicy& exec) {
  POPP_CHECK_MSG(options.size() == data.NumAttributes(),
                 "need one PiecewiseOptions per attribute");
  TransformPlan plan;
  plan.transforms_.resize(data.NumAttributes());
  // Advance the caller's generator exactly once, then give every attribute
  // its own stateless child stream. Serial and parallel execution derive
  // the same streams, so the plan is bit-identical at any thread count.
  const Rng base = rng.Fork();
  ParallelFor(exec, data.NumAttributes(), [&](size_t attr) {
    Rng child = base.Fork(attr);
    const AttributeSummary summary =
        AttributeSummary::FromDataset(data, attr);
    plan.transforms_[attr] =
        PiecewiseTransform::Create(summary, options[attr], child);
  });
  return plan;
}

TransformPlan TransformPlan::CreateFromSummaries(
    const std::vector<AttributeSummary>& summaries,
    const PiecewiseOptions& options, Rng& rng, const ExecPolicy& exec) {
  POPP_CHECK_MSG(!summaries.empty(), "CreateFromSummaries: no summaries");
  TransformPlan plan;
  plan.transforms_.resize(summaries.size());
  // Identical RNG discipline to CreatePerAttribute: one fork of the
  // caller's stream, then index-derived children — so the plan matches the
  // batch fit bit-for-bit given equal summaries and seed.
  const Rng base = rng.Fork();
  ParallelFor(exec, summaries.size(), [&](size_t attr) {
    Rng child = base.Fork(attr);
    plan.transforms_[attr] =
        PiecewiseTransform::Create(summaries[attr], options, child);
  });
  return plan;
}

TransformPlan TransformPlan::FromTransforms(
    std::vector<PiecewiseTransform> transforms) {
  POPP_CHECK_MSG(!transforms.empty(), "FromTransforms: no transforms");
  TransformPlan plan;
  plan.transforms_ = std::move(transforms);
  return plan;
}

const PiecewiseTransform& TransformPlan::transform(size_t attr) const {
  POPP_CHECK_MSG(attr < transforms_.size(), "bad attribute " << attr);
  return transforms_[attr];
}

AttrValue TransformPlan::Encode(size_t attr, AttrValue v) const {
  return transform(attr).Apply(v);
}

AttrValue TransformPlan::Decode(size_t attr, AttrValue v) const {
  return transform(attr).Inverse(v);
}

Dataset TransformPlan::EncodeDataset(const Dataset& data) const {
  POPP_CHECK_MSG(data.NumAttributes() == transforms_.size(),
                 "plan/dataset attribute count mismatch");
  std::vector<std::vector<AttrValue>> columns(transforms_.size());
  for (size_t attr = 0; attr < transforms_.size(); ++attr) {
    const PiecewiseTransform& f = transforms_[attr];
    std::vector<AttrValue>& out = columns[attr];
    out.reserve(data.NumRows());
    for (AttrValue x : data.Column(attr)) out.push_back(f.Apply(x));
  }
  return Dataset(data.schema(), std::move(columns), data.labels());
}

std::string TransformPlan::Describe(const Schema& schema) const {
  std::ostringstream oss;
  for (size_t attr = 0; attr < transforms_.size(); ++attr) {
    oss << schema.AttributeName(attr) << ": "
        << transforms_[attr].Describe();
  }
  return oss.str();
}

}  // namespace popp
