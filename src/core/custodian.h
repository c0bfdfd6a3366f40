#ifndef POPP_CORE_CUSTODIAN_H_
#define POPP_CORE_CUSTODIAN_H_

#include <cstdint>
#include <string>

#include "data/dataset.h"
#include "transform/compiled.h"
#include "transform/plan.h"
#include "transform/tree_decode.h"
#include "tree/builder.h"
#include "tree/decision_tree.h"

/// \file
/// The data-custodian facade: the end-to-end workflow of the paper's
/// introduction. A custodian owns (or is entrusted with) a dataset D,
/// releases the transformed D' to an untrusted mining service, receives
/// the encoded tree T', decodes it to the true tree T, and can verify that
/// T equals the tree that mining D directly would have produced (the
/// no-outcome-change guarantee).

namespace popp {

/// Everything the custodian workflow is parameterized by.
struct CustodianOptions {
  PiecewiseOptions transform;  ///< how D is encoded
  BuildOptions tree;           ///< how trees are mined (both sides)
  uint64_t seed = 1;           ///< randomness of the encoding
  /// Execution policy for plan selection, encoding and mining. Serial by
  /// default; any thread count produces bit-identical plans and trees.
  ExecPolicy exec;
};

/// Owns the original data and the secret transformation plan.
class Custodian {
 public:
  /// Creates the custodian and samples the encoding plan immediately.
  /// `data` must be non-empty.
  Custodian(Dataset data, CustodianOptions options);

  const Dataset& original() const { return original_; }
  const CustodianOptions& options() const { return options_; }
  const TransformPlan& plan() const { return plan_; }

  /// The released dataset D' the service provider receives, encoded
  /// through the compiled kernels.
  Dataset Release() const;

  /// What the (honest) service provider computes: the tree mined from D'.
  DecisionTree MineReleased() const;

  /// Decodes an encoded tree T' received back from the provider, using
  /// the exact data-driven decoder.
  DecisionTree Decode(const DecisionTree& tprime) const;

  /// The ground truth: the tree mined directly from D.
  DecisionTree MineDirectly() const;

  /// End-to-end check of the no-outcome-change guarantee: mines D',
  /// decodes, and compares against mining D directly. Returns true when
  /// the decoded tree is exactly equal to the direct tree. If `detail` is
  /// non-null it receives a description of the first difference (empty on
  /// success).
  bool VerifyNoOutcomeChange(std::string* detail = nullptr) const;

 private:
  Dataset original_;
  CustodianOptions options_;
  TransformPlan plan_;
  CompiledPlan compiled_;
};

}  // namespace popp

#endif  // POPP_CORE_CUSTODIAN_H_
