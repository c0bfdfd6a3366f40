#ifndef POPP_TRANSFORM_TREE_DECODE_H_
#define POPP_TRANSFORM_TREE_DECODE_H_

#include "data/dataset.h"
#include "transform/plan.h"
#include "tree/decision_tree.h"
#include "util/status.h"

/// \file
/// Decoding the mined tree T' back into the original space (Theorem 2).
///
/// Two decoders:
///  * `DecodeTree` — the paper's construction: every node A theta nu' is
///    rewritten to A theta f_A^{-1}(nu'), swapping subtrees where the
///    transformation is locally order-reversing. Uses only the plan.
///  * `DecodeTreeWithData` — the custodian's exact decoder: she still owns
///    D, so each threshold is re-derived from the original values of the
///    tuples the node actually separates. This yields thresholds that are
///    bit-identical to those the tree builder would produce on D directly
///    (midpoints of the adjacent original values), for every function
///    family including bijective pieces — the strongest form of Theorem 2.

namespace popp {

/// Decodes T' using per-attribute function inversion only.
///
/// Exact (partition-identical to mining D) whenever each split threshold
/// lies either inside the non-bijective piece containing the two values it
/// separates or in an inter-piece gap — which holds for all single-piece
/// plans and for piece-boundary splits. Thresholds land strictly between
/// the same original values but are generally not canonical midpoints; use
/// CanonicalizeThresholds or DecodeTreeWithData for exact equality.
DecisionTree DecodeTree(const DecisionTree& tprime, const TransformPlan& plan);

/// Decodes T' exactly using the custodian's original data `original`
/// (which must be the dataset the plan encoded). The result is
/// ExactlyEqual to the tree mined directly from `original` whenever T' was
/// mined from plan.EncodeDataset(original) with the same builder options.
DecisionTree DecodeTreeWithData(const DecisionTree& tprime,
                                const TransformPlan& plan,
                                const Dataset& original);

/// DecodeTreeWithData for a tree, key and data that arrive from outside
/// the program (popp decode, the serve decode op). Where they disagree it
/// returns kInvalidArgument naming the mismatch instead of reaching a
/// CHECK: the key must have one transform per attribute of `original`,
/// every split must name one of its attributes and every leaf one of its
/// classes, and no split may separate interleaved original values (a tree
/// mined from other data).
Result<DecisionTree> TryDecodeTreeWithData(const DecisionTree& tprime,
                                           const TransformPlan& plan,
                                           const Dataset& original);

}  // namespace popp

#endif  // POPP_TRANSFORM_TREE_DECODE_H_
