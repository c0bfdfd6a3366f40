#ifndef POPP_BENCH_EXPERIMENT_COMMON_H_
#define POPP_BENCH_EXPERIMENT_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "attack/curve_fit.h"
#include "attack/knowledge.h"
#include "data/dataset.h"
#include "data/summary.h"
#include "synth/covtype_like.h"
#include "transform/piecewise.h"
#include "transform/plan.h"
#include "util/rng.h"

/// \file
/// Shared plumbing for the experiment binaries that regenerate the paper's
/// tables and figures. Each binary prints the measured rows next to the
/// paper's reported values (where the paper gives numbers) so the shape
/// comparison is immediate.
///
/// Environment overrides (so CI can run small and a workstation can run at
/// paper scale):
///   POPP_ROWS    dataset size            (default 20000; paper: 581012)
///   POPP_TRIALS  randomized trials/figure (default 101;   paper: 500)
///   POPP_SEED    master seed              (default 42)
/// Each takes whole unsigned decimal text, as popp's flags do; rows and
/// trials must be at least 1. Any other value exits 2, naming it.

namespace popp::bench {

/// Runtime configuration resolved from the environment.
struct ExperimentEnv {
  size_t rows = 20000;
  size_t trials = 101;
  uint64_t seed = 42;
};

/// Reads POPP_ROWS / POPP_TRIALS / POPP_SEED; exits 2 on a bad value.
ExperimentEnv GetEnv();

/// Prints the standard experiment banner (name + configuration).
void PrintBanner(const std::string& name, const ExperimentEnv& env);

/// Generates the covertype-like benchmark dataset (Figure 8 calibration).
Dataset LoadCovtype(const ExperimentEnv& env);

/// Wall seconds elapsed since `start`.
double Seconds(std::chrono::steady_clock::time_point start);

/// FNV-1a over a byte string; chainable via `seed`.
uint64_t Fnv1a(std::string_view bytes,
               uint64_t seed = 1469598103934665603ull);

/// The whole file at `path` (empty if it cannot be read).
std::string ReadFileBytes(const std::string& path);

/// The checksum a release is compared by: Fnv1a of the serialized plan,
/// chained onto Fnv1a of the released CSV text.
uint64_t ReleaseChecksum(const TransformPlan& plan,
                         std::string_view released_csv);

/// ReleaseChecksum of the one-shot batch release of `data` with `seed`,
/// the bytes every streamed, sharded or supervised release must equal.
uint64_t BatchReleaseChecksum(const Dataset& data, uint64_t seed);

/// The host a benchmark ran on, as a JSON object: online cores and the
/// CPU model /proc/cpuinfo names. Every BENCH_*.json records it.
std::string HostJson();

/// The transform configuration used throughout Section 6 for a given
/// breakpoint policy: w >= 20 breakpoints, sqrt(log) as the default
/// F_mono member (the paper's "worst case" reporting choice), permutations
/// on monochromatic pieces.
PiecewiseOptions PaperTransform(BreakpointPolicy policy);

/// Knowledge configuration for a named hacker tier at radius fraction rho.
KnowledgeOptions PaperKnowledge(HackerProfile profile,
                                double radius_fraction = 0.01);

/// A crack function materialized from the sorting attack: the hacker sorts
/// the released distinct values and rank-maps them onto the true dynamic
/// range (worst case: true min/max known). Guess(y) returns the rank-spread
/// guess of the nearest released value.
class SortingCrack : public CrackFunction {
 public:
  /// `original` supplies the assumed min/max; `transform` the release.
  SortingCrack(const AttributeSummary& original,
               const PiecewiseTransform& transform);

  AttrValue Guess(AttrValue released) const override;
  std::string Name() const override { return "sorting"; }

 private:
  std::vector<AttrValue> released_sorted_;
  std::vector<AttrValue> guesses_;  // aligned with released_sorted_
};

}  // namespace popp::bench

#endif  // POPP_BENCH_EXPERIMENT_COMMON_H_
