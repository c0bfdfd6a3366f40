// Experiment E9 — the Section 4 guarantee at benchmark scale: for gini and
// entropy, and every breakpoint policy, mining the released data and
// decoding yields exactly the tree mined directly — while the perturbation
// baseline changes the outcome every time. Also reports wall-clock of the
// custodian pipeline stages (the paper quotes 1–2 s per attribute for
// ChooseMaxMP in MATLAB).

#include <chrono>
#include <cstdio>

#include "experiment_common.h"
#include "perturb/comparison.h"
#include "tree/prune.h"
#include "transform/plan.h"
#include "transform/tree_decode.h"
#include "tree/builder.h"
#include "tree/compare.h"
#include "util/table.h"

namespace popp::bench {
namespace {

int Run() {
  const ExperimentEnv env = GetEnv();
  PrintBanner("No-outcome-change guarantee (Theorems 1 & 2) at scale", env);
  const Dataset data = LoadCovtype(env);
  int failures = 0;

  TablePrinter table({"criterion", "policy", "tree leaves", "encode s",
                      "mine-T' s", "decode s", "decode == direct"});
  for (auto criterion : {SplitCriterion::kGini, SplitCriterion::kEntropy,
                         SplitCriterion::kGainRatio}) {
    BuildOptions tree_options;
    tree_options.criterion = criterion;
    const DecisionTreeBuilder builder(tree_options);
    const DecisionTree direct = builder.Build(data);
    for (auto policy : {BreakpointPolicy::kNone, BreakpointPolicy::kChooseBP,
                        BreakpointPolicy::kChooseMaxMP}) {
      Rng rng(env.seed + static_cast<uint64_t>(policy) * 17 +
              static_cast<uint64_t>(criterion));
      auto t0 = std::chrono::steady_clock::now();
      const TransformPlan plan =
          TransformPlan::Create(data, PaperTransform(policy), rng);
      const Dataset released = plan.EncodeDataset(data);
      const double encode_s = Seconds(t0);

      t0 = std::chrono::steady_clock::now();
      const DecisionTree mined = builder.Build(released);
      const double mine_s = Seconds(t0);

      t0 = std::chrono::steady_clock::now();
      const DecisionTree decoded = DecodeTreeWithData(mined, plan, data);
      const double decode_s = Seconds(t0);

      const bool equal = ExactlyEqual(direct, decoded);
      if (!equal) ++failures;
      table.AddRow({ToString(criterion), ToString(policy),
                    std::to_string(direct.NumLeaves()),
                    TablePrinter::Fmt(encode_s, 2),
                    TablePrinter::Fmt(mine_s, 2),
                    TablePrinter::Fmt(decode_s, 2), equal ? "YES" : "NO"});
    }
  }
  table.Print("decode(mine(encode(D))) == mine(D)");

  // The guarantee extends to pruned trees: pruning is count-based.
  {
    Rng rng(env.seed + 31);
    const DecisionTreeBuilder builder{BuildOptions{}};
    const TransformPlan plan = TransformPlan::Create(
        data, PaperTransform(BreakpointPolicy::kChooseMaxMP), rng);
    const DecisionTree direct = PruneTree(builder.Build(data));
    const DecisionTree decoded = PruneTree(DecodeTreeWithData(
        builder.Build(plan.EncodeDataset(data)), plan, data));
    const bool equal = ExactlyEqual(direct, decoded);
    if (!equal) ++failures;
    std::printf("\nwith C4.5 pessimistic pruning (%zu leaves): "
                "prune(decode(T')) == prune(T): %s\n",
                direct.NumLeaves(), equal ? "YES" : "NO");
  }

  // Contrast: the perturbation baseline cannot provide pillar 1.
  std::printf("\n--- perturbation baseline (outcome changes) ---\n");
  Rng rng(env.seed + 99);
  PerturbOptions perturb;
  perturb.scale_fraction = 0.25;
  const PerturbationImpact impact =
      MeasurePerturbationImpact(data, perturb, BuildOptions{}, 0.02, rng);
  std::printf("direct tree accuracy on D:            %.2f%%\n",
              100.0 * impact.original_accuracy);
  std::printf("perturbed-data tree accuracy on D:    %.2f%%\n",
              100.0 * impact.perturbed_tree_accuracy);
  std::printf("trees structurally identical:         %s\n",
              impact.same_tree ? "yes" : "no (outcome changed)");
  return failures;
}

}  // namespace
}  // namespace popp::bench

int main() { return popp::bench::Run(); }
