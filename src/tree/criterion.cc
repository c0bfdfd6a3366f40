#include "tree/criterion.h"

#include <cmath>

#include "util/status.h"

namespace popp {
namespace {

uint64_t Total(const std::vector<uint64_t>& counts) {
  uint64_t n = 0;
  for (uint64_t c : counts) n += c;
  return n;
}

}  // namespace

std::string ToString(SplitCriterion criterion) {
  switch (criterion) {
    case SplitCriterion::kGini:
      return "gini";
    case SplitCriterion::kEntropy:
      return "entropy";
    case SplitCriterion::kGainRatio:
      return "gain-ratio";
  }
  return "?";
}

Result<SplitCriterion> ParseSplitCriterion(std::string_view name) {
  if (name == "gini") return SplitCriterion::kGini;
  if (name == "entropy") return SplitCriterion::kEntropy;
  if (name == "gainratio") return SplitCriterion::kGainRatio;
  return Status::InvalidArgument("unknown --criterion '" + std::string(name) +
                                 "' (expected gini, entropy or gainratio)");
}

double GiniImpurity(const std::vector<uint64_t>& counts) {
  const uint64_t n = Total(counts);
  if (n == 0) return 0.0;
  double sum_sq = 0.0;
  for (uint64_t c : counts) {
    const double p = static_cast<double>(c) / static_cast<double>(n);
    sum_sq += p * p;
  }
  return 1.0 - sum_sq;
}

double EntropyImpurity(const std::vector<uint64_t>& counts) {
  const uint64_t n = Total(counts);
  if (n == 0) return 0.0;
  double h = 0.0;
  for (uint64_t c : counts) {
    if (c == 0) continue;
    const double p = static_cast<double>(c) / static_cast<double>(n);
    h -= p * std::log2(p);
  }
  return h;
}

double Impurity(SplitCriterion criterion,
                const std::vector<uint64_t>& counts) {
  switch (criterion) {
    case SplitCriterion::kGini:
      return GiniImpurity(counts);
    case SplitCriterion::kEntropy:
    case SplitCriterion::kGainRatio:
      return EntropyImpurity(counts);
  }
  POPP_CHECK_MSG(false, "unknown criterion");
  return 0.0;
}

double WeightedSplitImpurity(SplitCriterion criterion,
                             const std::vector<uint64_t>& left,
                             const std::vector<uint64_t>& right) {
  const uint64_t nl = Total(left);
  const uint64_t nr = Total(right);
  const uint64_t n = nl + nr;
  if (n == 0) return 0.0;
  const double wl = static_cast<double>(nl) / static_cast<double>(n);
  const double wr = static_cast<double>(nr) / static_cast<double>(n);
  return wl * Impurity(criterion, left) + wr * Impurity(criterion, right);
}

double InformationGain(const std::vector<uint64_t>& left,
                       const std::vector<uint64_t>& right) {
  POPP_CHECK(left.size() == right.size());
  std::vector<uint64_t> parent(left.size());
  for (size_t c = 0; c < left.size(); ++c) parent[c] = left[c] + right[c];
  return EntropyImpurity(parent) -
         WeightedSplitImpurity(SplitCriterion::kEntropy, left, right);
}

double SplitInformation(uint64_t left_total, uint64_t right_total) {
  return EntropyImpurity({left_total, right_total});
}

double GainRatio(const std::vector<uint64_t>& left,
                 const std::vector<uint64_t>& right) {
  uint64_t nl = Total(left);
  uint64_t nr = Total(right);
  const double split_info = SplitInformation(nl, nr);
  if (split_info <= 0.0) return 0.0;
  return InformationGain(left, right) / split_info;
}

double SplitBadness(SplitCriterion criterion,
                    const std::vector<uint64_t>& left,
                    const std::vector<uint64_t>& right) {
  switch (criterion) {
    case SplitCriterion::kGini:
    case SplitCriterion::kEntropy:
      return WeightedSplitImpurity(criterion, left, right);
    case SplitCriterion::kGainRatio:
      return -GainRatio(left, right);
  }
  POPP_CHECK_MSG(false, "unknown criterion");
  return 0.0;
}

double SplitImprovement(SplitCriterion criterion,
                        const std::vector<uint64_t>& parent,
                        const std::vector<uint64_t>& left,
                        const std::vector<uint64_t>& right) {
  switch (criterion) {
    case SplitCriterion::kGini:
    case SplitCriterion::kEntropy:
      return Impurity(criterion, parent) -
             WeightedSplitImpurity(criterion, left, right);
    case SplitCriterion::kGainRatio:
      return InformationGain(left, right);
  }
  POPP_CHECK_MSG(false, "unknown criterion");
  return 0.0;
}

}  // namespace popp
