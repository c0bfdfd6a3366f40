#ifndef POPP_TREE_CRITERION_H_
#define POPP_TREE_CRITERION_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

/// \file
/// Split-selection criteria for decision-tree induction (paper Section 4):
/// the gini index and entropy / information gain, the "two most widely
/// used" selection criteria for which the no-outcome-change guarantee is
/// proved.
///
/// Both criteria are functions of class *counts* only — never of raw
/// attribute values — which is exactly why a monotone transformation of the
/// attribute values leaves every impurity computation bit-identical
/// (Theorem 1). The implementations below are careful to keep all
/// arithmetic a deterministic function of the integer counts.

namespace popp {

/// Which split-quality measure the tree builder optimizes.
enum class SplitCriterion {
  kGini,
  kEntropy,
  /// C4.5's default: information gain normalized by the split's own
  /// entropy, which counteracts the gain's bias toward many-way /
  /// unbalanced splits. Like gini and entropy it is a function of class
  /// counts only, so the no-outcome-change guarantee covers it too.
  kGainRatio,
};

/// Returns "gini", "entropy" or "gain-ratio".
std::string ToString(SplitCriterion criterion);

/// Parses the `--criterion` spelling: "gini", "entropy" or "gainratio".
Result<SplitCriterion> ParseSplitCriterion(std::string_view name);

/// Gini index of a class histogram: 1 - sum_c (n_c / n)^2.
/// Returns 0 for an empty histogram.
double GiniImpurity(const std::vector<uint64_t>& counts);

/// Shannon entropy of a class histogram in bits: -sum_c p_c log2 p_c.
/// Returns 0 for an empty histogram.
double EntropyImpurity(const std::vector<uint64_t>& counts);

/// Impurity of `counts` under `criterion`.
double Impurity(SplitCriterion criterion, const std::vector<uint64_t>& counts);

/// Weighted impurity of a binary split:
///   (n_L * I(left) + n_R * I(right)) / (n_L + n_R).
/// Lower is better. Symmetric in (left, right) — the score of a split does
/// not depend on which side is called "left", which is what makes the
/// guarantee hold for anti-monotone transformations as well.
/// For kGainRatio the impurity part uses entropy (the gain-ratio
/// normalization lives in SplitBadness).
double WeightedSplitImpurity(SplitCriterion criterion,
                             const std::vector<uint64_t>& left,
                             const std::vector<uint64_t>& right);

/// Information gain of a binary split under entropy:
///   H(parent) - weighted H(children), with parent = left + right.
double InformationGain(const std::vector<uint64_t>& left,
                       const std::vector<uint64_t>& right);

/// C4.5's split information: the entropy of the size split
/// (n_L, n_R) — the gain ratio's denominator.
double SplitInformation(uint64_t left_total, uint64_t right_total);

/// Gain ratio = InformationGain / SplitInformation; 0 when the split
/// information vanishes (all tuples on one side).
double GainRatio(const std::vector<uint64_t>& left,
                 const std::vector<uint64_t>& right);

/// Uniform "lower is better" split score used by the tree builder:
///  * gini / entropy — the weighted split impurity;
///  * gain ratio     — the negated gain ratio.
/// Like everything here, a function of class counts only.
double SplitBadness(SplitCriterion criterion,
                    const std::vector<uint64_t>& left,
                    const std::vector<uint64_t>& right);

/// The builder's stopping quantity: how much a split improves on the
/// parent. For gini/entropy this is parent impurity minus the weighted
/// split impurity; for gain ratio it is the information gain itself
/// (C4.5 requires positive gain regardless of the ratio used for
/// ranking). A split is accepted when this exceeds the configured
/// minimum improvement strictly.
double SplitImprovement(SplitCriterion criterion,
                        const std::vector<uint64_t>& parent,
                        const std::vector<uint64_t>& left,
                        const std::vector<uint64_t>& right);

}  // namespace popp

#endif  // POPP_TREE_CRITERION_H_
