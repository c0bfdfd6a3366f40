#ifndef POPP_CHECK_ORACLES_H_
#define POPP_CHECK_ORACLES_H_

#include <functional>
#include <string>
#include <vector>

#include "check/generators.h"
#include "data/dataset.h"
#include "transform/plan.h"
#include "tree/builder.h"

/// \file
/// The oracle suite: the paper's invariants as reusable predicates.
///
/// Each oracle takes the original data plus the derived artifacts (plan,
/// released data) and returns pass/fail with a first-failure diagnostic.
/// The same predicates back three consumers: the seed-sweep property tests
/// (`tests/property_test.cc`), the randomized `popp_check` fuzzer, and the
/// shrinker's failure predicate — so a guarantee is encoded exactly once.

namespace popp::check {

/// Outcome of one oracle evaluation.
struct OracleResult {
  bool passed = true;
  std::string message;  ///< first-failure diagnostic; empty on pass

  static OracleResult Ok() { return {}; }
  static OracleResult Fail(std::string message) {
    return {false, std::move(message)};
  }
};

/// Encode is injective on every active domain and Decode inverts it
/// (within 1e-7 relative tolerance; images of distinct values must be
/// exactly distinct).
OracleResult CheckEncodeBijective(const Dataset& original,
                                  const TransformPlan& plan);

/// Definition 8: every attribute's transform satisfies the global
/// (anti-)monotone invariant against the attribute's actual images.
OracleResult CheckGlobalInvariant(const Dataset& original,
                                  const TransformPlan& plan);

/// Lemma 1 / Lemma 2 prerequisite: the label-run decomposition of every
/// attribute's sorted projection is preserved by the release — identically
/// for a global-monotone plan, in value-group-reversed order for a
/// global-anti-monotone plan. (Within-run reshuffling by bijective pieces
/// is allowed; run labels and lengths are not.)
OracleResult CheckLabelRunPreservation(const Dataset& original,
                                       const TransformPlan& plan,
                                       const Dataset& released);

/// Theorems 1 and 2, the no-outcome-change core: for each requested
/// criterion, the tree mined from `released` and decoded with the
/// custodian's data equals the directly mined tree — bit-exactly
/// (structure, attributes, thresholds, labels) for order-preserving plans.
/// For order-reversing plans the sharp invariant is that the decode equals
/// the tree built on the *reflected* original (anti attributes negated)
/// mapped back: an exactly-tied split at a class-palindromic node legally
/// resolves to its mirror, and the two resolutions can recurse into
/// different subtrees — even leaf count and training accuracy may drift —
/// so no direct-tree comparison is sound there. When `pruned` is set both
/// trees are pessimistically pruned first, which must preserve the same
/// equality (pruning sees only class histograms).
OracleResult CheckTreeEquivalence(const Dataset& original,
                                  const TransformPlan& plan,
                                  const Dataset& released,
                                  const BuildOptions& build_options,
                                  const std::vector<SplitCriterion>& criteria,
                                  bool pruned);

/// popp-plan v1 and popp-tree v1 round-trips are byte-stable: serialize →
/// parse → serialize reproduces the exact bytes, the reloaded plan encodes
/// every active-domain value bit-identically, and the reloaded tree is
/// ExactlyEqual to the original.
OracleResult CheckSerializeRoundTrip(const Dataset& original,
                                     const TransformPlan& plan,
                                     const BuildOptions& build_options);

/// The deterministic-parallelism contract: re-deriving the plan, mining
/// both trees, and running a small risk-trial battery under a random
/// thread count (derived from the case's plan seed) must reproduce the
/// serial artifacts bit-for-bit — identical plan serialization, exactly
/// equal trees, exactly equal trial vectors.
OracleResult CheckParallelDeterminism(const Dataset& original,
                                      const TransformPlan& plan,
                                      const Dataset& released,
                                      const BuildOptions& build_options,
                                      uint64_t plan_seed,
                                      const PiecewiseOptions& transform_options,
                                      size_t num_threads);

/// The tree-engine contract (tree/builder.h): on the original and on the
/// released data, the production kFrontier engine at `num_threads`
/// threads must build a tree ExactlyEqual to the one the serial kResort
/// reference builds under the same `build_options`.
OracleResult CheckFrontierVsResort(const Dataset& original,
                                   const Dataset& released,
                                   const BuildOptions& build_options,
                                   size_t num_threads);

/// The streaming contract (src/stream): a two-pass streamed release over
/// the same data with the same seed must reproduce the batch artifacts
/// bit-for-bit at *any* chunk size and thread count — identical plan
/// serialization and byte-identical released CSV — while holding at most
/// `chunk_rows` rows resident and reporting zero out-of-domain values.
OracleResult CheckStreamVsBatch(const Dataset& original,
                                const TransformPlan& plan,
                                const Dataset& released, uint64_t plan_seed,
                                const PiecewiseOptions& transform_options,
                                size_t chunk_rows, size_t num_threads);

/// The interchange-format contract (data/cols.h, stream/cols_io.h): the
/// fuzz case round-tripped CSV -> popp-cols -> CSV must reproduce the
/// canonical CSV bytes exactly (values travel as bit patterns, including
/// -0.0 and denormals), the container serialization must be byte-stable,
/// and a streamed release fed from the popp-cols container must be
/// byte-identical — same plan serialization, same released CSV — to the
/// release fed from the CSV-parsed dataset and to the batch release, at
/// the given chunk size and thread count.
OracleResult CheckColsVsCsv(const Dataset& original,
                            const TransformPlan& plan,
                            const Dataset& released, uint64_t plan_seed,
                            const PiecewiseOptions& transform_options,
                            size_t chunk_rows, size_t num_threads);

/// The interpreted reference of the clamp out-of-domain encode: the image,
/// under PiecewiseTransform::Apply, of the nearest fitted-hull endpoint.
AttrValue ReferenceEncodeClamped(const PiecewiseTransform& t, AttrValue x);

/// The interpreted reference of the extend-piece out-of-domain encode:
/// linear extrapolation beyond the output hull in the global direction;
/// in-hull values go through PiecewiseTransform::Apply.
AttrValue ReferenceEncodeExtended(const PiecewiseTransform& t, AttrValue x);

/// The compiled-kernel contract (transform/compiled.h): for every probe —
/// active-domain values, inter-value midpoints, piece-gap interiors and
/// out-of-hull offsets — the compiled Apply/Inverse (with and without the
/// LUT fast path) must be *bit-identical* to the interpreted transform, the
/// compiled OOD encoders must match the reference encoders above, a
/// compiled serialize→parse→compile round trip must encode identically, and
/// CompiledPlan::EncodeDataset must reproduce the interpreted release
/// byte-for-byte at 1 and `num_threads` threads.
OracleResult CheckCompiledVsInterpreted(const Dataset& original,
                                        const TransformPlan& plan,
                                        const Dataset& released,
                                        size_t num_threads);

/// The crash-safety contract of the hardened I/O layer (src/fault,
/// stream/manifest.h): under `num_schedules` deterministic fault schedules
/// — clean I/O errors, torn writes and simulated kills, each injected at a
/// seed-derived operation index — a streamed release into the journaled
/// on-disk sink must (a) surface the fault as a Status instead of crashing
/// or aborting, (b) never leave a partial or checksum-invalid artifact
/// under the final name, and (c) complete under `--resume` with output
/// byte-identical (by CRC64) to an uninterrupted release, leaving no
/// journal or partial file behind. Runs in a private scratch directory
/// under the system temp dir.
OracleResult CheckFaultCrashSafety(const Dataset& original, uint64_t plan_seed,
                                   const PiecewiseOptions& transform_options,
                                   size_t chunk_rows, size_t num_schedules);

/// The sharded-release contract (src/shard): a two-phase sharded release
/// over the fuzz case — written to a scratch input file in CSV or
/// popp-cols framing — must produce shard files whose *concatenation* is
/// byte-identical to the single-process streamed release of the same
/// input (and therefore to the batch release), an identical plan
/// serialization, and a meta-manifest that verifies shard by shard
/// (including a tamper probe: flipping one shard byte must surface as
/// DataLoss). Then `num_fault_schedules` seed-derived fault schedules —
/// clean errors, torn writes and simulated kills at a random fault-layer
/// operation — are injected into the whole pipeline (worker summarize and
/// encode I/O, coordinator hash and meta-manifest commit): a fired fault
/// must surface as a Status, a *published* meta-manifest must always name
/// a complete verifiable release, and a `--resume` rerun must converge to
/// the exact golden bytes leaving no journal, partial or summary debris.
/// Thread-mode workers only (fork does not mix with test harnesses).
OracleResult CheckShardVsStream(const Dataset& original,
                                const TransformPlan& plan,
                                const Dataset& released, uint64_t plan_seed,
                                const PiecewiseOptions& transform_options,
                                size_t num_shards, size_t num_threads,
                                size_t chunk_rows, bool use_cols,
                                size_t num_fault_schedules);

/// The serving contract (src/serve): a popp-serve daemon started on a
/// scratch Unix socket must produce encode replies *byte-identical* to the
/// one-shot CLI encode with the same seed/policy flags — at 1, 2 and 7
/// request threads, in both CSV and popp-cols request framing (replies
/// mirror the request framing: CSV requests get the CLI's CSV bytes,
/// cols requests get the same release as popp-cols), cold and
/// hot (the repeat requests must actually hit the plan cache), and from a
/// second tenant whose cache is isolated. A fit with a server-side save
/// path is then driven through seed-derived fault schedules (clean errors
/// and simulated kills mid-save, reusing the src/fault fail points): the
/// daemon must survive and report the fault in the reply, the save path
/// must never hold a partial or non-canonical plan document, and a
/// fault-free retry must publish the exact CLI plan bytes. Finally a
/// protocol shutdown must drain, remove the socket file and exit 0.
OracleResult CheckServeVsCli(const Dataset& original, uint64_t plan_seed,
                             const PiecewiseOptions& transform_options,
                             size_t num_fault_schedules);

/// The supervision-and-overload contract (src/resil): randomized
/// crash/error/*delay* schedules composed over both execution backends
/// must always converge or fail loudly — never hang, never leave debris.
/// Shard half (thread-mode workers): a delay injected into the release
/// must leave a successful run whose artifacts are byte-identical to the
/// fault-free release (a slow worker is not an error); crash/error
/// schedules must surface as a Status, keep every *published*
/// meta-manifest verifiable, and converge to the exact golden bytes under
/// --resume; every trial is wall-clock bounded. Serve half: an in-process
/// daemon with a tight admission bound (1 in flight, 1 queued) must
/// answer `health` unconditionally, shed a "deadline-ms 0" request with
/// an explicit kUnavailable reply, survive randomized delay/error/crash
/// schedules on a fit-with-save under randomized request deadlines driven
/// through the client's retry loop (a fired delay may only surface as
/// kUnavailable — never as a phantom I/O error; the save path never holds
/// a torn plan document), converge to the exact CLI plan bytes on a
/// fault-free retry, and still drain to exit 0.
OracleResult CheckSupervisedConvergence(
    const Dataset& original, const TransformPlan& plan,
    const Dataset& released, uint64_t plan_seed,
    const PiecewiseOptions& transform_options, size_t num_shards,
    size_t num_threads, size_t chunk_rows, size_t num_schedules);

/// A trial case with its derived artifacts, evaluated by every oracle.
struct TrialContext {
  TrialCase c;
  TransformPlan plan;
  Dataset released;
};

/// Samples the plan from `c.plan_seed` and encodes the dataset.
TrialContext MakeTrialContext(TrialCase c);

/// A named oracle over a full trial context.
struct Oracle {
  std::string name;
  std::function<OracleResult(const TrialContext&)> run;
};

/// The registry the fuzz driver iterates: encode_bijective,
/// global_invariant, label_runs, tree_equivalence, tree_equivalence_pruned,
/// frontier_vs_resort, serialize_roundtrip, stream_vs_batch, cols_vs_csv,
/// compiled_vs_interpreted, parallel_determinism, fault_crash_safety,
/// shard_vs_stream, serve_vs_cli, supervised_convergence.
const std::vector<Oracle>& AllOracles();

/// Evaluates the named oracle on a bare case (re-deriving plan and release).
/// Used as the shrinker's failure predicate.
OracleResult RunOracleOnCase(const Oracle& oracle, const TrialCase& c);

}  // namespace popp::check

#endif  // POPP_CHECK_ORACLES_H_
