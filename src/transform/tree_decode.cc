#include "transform/tree_decode.h"

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

namespace popp {
namespace {

/// Recursive pure-function decode; returns the new node's id in `out`.
NodeId DecodePure(const DecisionTree& tprime, NodeId id,
                  const TransformPlan& plan, DecisionTree& out) {
  const auto& n = tprime.node(id);
  if (n.is_leaf) {
    return out.AddLeaf(n.label, n.class_hist);
  }
  const PiecewiseTransform::ThresholdDecode decode =
      plan.transform(n.attribute).InverseThreshold(n.threshold);
  NodeId left_src = n.left;
  NodeId right_src = n.right;
  if (decode.order_reversed) {
    std::swap(left_src, right_src);
  }
  const NodeId left = DecodePure(tprime, left_src, plan, out);
  const NodeId right = DecodePure(tprime, right_src, plan, out);
  return out.AddInternal(n.attribute, decode.value, left, right,
                         n.class_hist);
}

/// DecodeTreeWithData's walk. A split whose sides interleave in original
/// space stops it with kInvalidArgument.
Result<DecisionTree> DecodeWithData(const DecisionTree& tprime,
                                    const TransformPlan& plan,
                                    const Dataset& original) {
  DecisionTree out;
  if (tprime.empty()) return out;

  const Dataset encoded = plan.EncodeDataset(original);
  Status error = Status::Ok();

  std::function<NodeId(NodeId, const std::vector<size_t>&)> walk =
      [&](NodeId id, const std::vector<size_t>& rows) -> NodeId {
    const auto& n = tprime.node(id);
    if (n.is_leaf) {
      return out.AddLeaf(n.label, n.class_hist);
    }
    std::vector<size_t> left_rows, right_rows;
    for (size_t r : rows) {
      (encoded.Value(r, n.attribute) <= n.threshold ? left_rows : right_rows)
          .push_back(r);
    }
    if (left_rows.empty() || right_rows.empty()) {
      // The node does not separate any custodian tuples (possible only if
      // T' was mined from different data); fall back to pure inversion.
      return DecodePure(tprime, id, plan, out);
    }
    // Original-space value ranges of the two sides.
    auto range_of = [&](const std::vector<size_t>& side) {
      AttrValue lo = original.Value(side[0], n.attribute);
      AttrValue hi = lo;
      for (size_t r : side) {
        const AttrValue v = original.Value(r, n.attribute);
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
      return std::pair<AttrValue, AttrValue>{lo, hi};
    };
    const auto [lmin, lmax] = range_of(left_rows);
    const auto [rmin, rmax] = range_of(right_rows);

    if (lmax < rmin) {
      // Order preserved: left side holds the smaller original values.
      const AttrValue threshold = lmax + (rmin - lmax) / 2;
      const NodeId left = walk(n.left, left_rows);
      const NodeId right = walk(n.right, right_rows);
      if (!error.ok()) return kNoNode;
      return out.AddInternal(n.attribute, threshold, left, right,
                             n.class_hist);
    }
    if (!(rmax < lmin)) {
      error = Status::InvalidArgument(
          "decode: the split on attribute '" +
          original.schema().AttributeName(n.attribute) +
          "' leaves sides that interleave in original space: either the "
          "key does not match the data the tree was mined from, or the "
          "split threshold falls inside a bijective/direction-free piece "
          "(possible when the miner's best feasible split is interior to "
          "a label run, e.g. kAllBoundaries with min_leaf_size > 1), where "
          "no original-space threshold reproduces the routing");
      return kNoNode;
    }
    // Order reversed around this threshold: T''s right side holds the
    // smaller original values, so it becomes the decoded left subtree.
    const AttrValue threshold = rmax + (lmin - rmax) / 2;
    const NodeId left = walk(n.right, right_rows);
    const NodeId right = walk(n.left, left_rows);
    if (!error.ok()) return kNoNode;
    return out.AddInternal(n.attribute, threshold, left, right,
                           n.class_hist);
  };

  std::vector<size_t> rows(original.NumRows());
  for (size_t r = 0; r < rows.size(); ++r) rows[r] = r;
  const NodeId root = walk(tprime.root(), rows);
  if (!error.ok()) return error;
  out.SetRoot(root);
  return out;
}

/// The key has one transform per attribute of `original`, every split
/// names one of its attributes and every leaf one of its classes.
Status CheckDecodeInputs(const DecisionTree& tprime, const TransformPlan& plan,
                         const Dataset& original) {
  const std::string data_attributes =
      std::to_string(original.NumAttributes()) + " attributes";
  if (plan.NumAttributes() != original.NumAttributes()) {
    return Status::InvalidArgument(
        "the key has " + std::to_string(plan.NumAttributes()) +
        " attributes but the data has " + data_attributes);
  }
  for (NodeId id = 0; static_cast<size_t>(id) < tprime.NumNodes(); ++id) {
    const DecisionTree::Node& n = tprime.node(id);
    if (!n.is_leaf && n.attribute >= original.NumAttributes()) {
      return Status::InvalidArgument(
          "the tree splits on attribute index " +
          std::to_string(n.attribute) + " but the data has " +
          data_attributes);
    }
    if (n.is_leaf && (n.label < 0 || static_cast<size_t>(n.label) >=
                                         original.NumClasses())) {
      return Status::InvalidArgument(
          "the tree predicts class id " + std::to_string(n.label) +
          " but the data has " + std::to_string(original.NumClasses()) +
          " classes");
    }
  }
  return Status::Ok();
}

}  // namespace

DecisionTree DecodeTree(const DecisionTree& tprime,
                        const TransformPlan& plan) {
  DecisionTree out;
  if (tprime.empty()) return out;
  out.SetRoot(DecodePure(tprime, tprime.root(), plan, out));
  return out;
}

DecisionTree DecodeTreeWithData(const DecisionTree& tprime,
                                const TransformPlan& plan,
                                const Dataset& original) {
  Result<DecisionTree> decoded = DecodeWithData(tprime, plan, original);
  POPP_CHECK_MSG(decoded.ok(), decoded.status().message());
  return std::move(decoded).value();
}

Result<DecisionTree> TryDecodeTreeWithData(const DecisionTree& tprime,
                                           const TransformPlan& plan,
                                           const Dataset& original) {
  POPP_RETURN_IF_ERROR(CheckDecodeInputs(tprime, plan, original));
  return DecodeWithData(tprime, plan, original);
}

}  // namespace popp
