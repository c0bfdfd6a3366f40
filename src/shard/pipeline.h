#ifndef POPP_SHARD_PIPELINE_H_
#define POPP_SHARD_PIPELINE_H_

#include <cstdint>
#include <string>

#include "data/csv.h"
#include "parallel/exec_policy.h"
#include "shard/meta_manifest.h"
#include "shard/planner.h"
#include "stream/cols_io.h"
#include "transform/plan.h"
#include "util/status.h"

/// \file
/// The two-phase sharded release. Phase 1: N workers summarize disjoint
/// row-range shards in parallel (in-process ThreadPool workers, or forked
/// worker processes that hand their summaries to the coordinator as
/// CRC64-footered artifacts). Barrier. The coordinator merges the shard
/// summaries in a deterministic fixed-shape binary tree, remapping each
/// shard's class dictionary into the global first-appearance order, and
/// fits the single global TransformPlan with the exact batch RNG
/// discipline. Phase 2: workers encode their shards through the compiled
/// kernels into per-shard output files, each guarded by its own PR 5-style
/// journal so any worker can crash and `--resume` independently. Finally
/// the manifest-of-manifests is published atomically; only then are the
/// per-shard journals retired.
///
/// Contract: the concatenation of the shard files is byte-identical to the
/// single-process `stream-release` output for every shard count, thread
/// count, worker mode and input format (`shard_vs_stream` oracle).

namespace popp::shard {

enum class WorkersMode {
  kThread,   ///< workers are ThreadPool tasks in this process
  kProcess,  ///< workers are forked child processes
};

Result<WorkersMode> ParseWorkersMode(std::string_view name);

struct ShardOptions {
  /// Worker (and shard) count; 1 degenerates to the single-process path.
  size_t num_shards = 2;
  WorkersMode workers_mode = WorkersMode::kThread;
  /// Rows per chunk inside each worker — the per-worker memory bound.
  size_t chunk_rows = 4096;
  PiecewiseOptions transform;
  uint64_t seed = 1;
  /// Thread budget. With one shard the single worker uses all of it (the
  /// exact single-process path); with more, shards are the unit of
  /// parallelism. Output bits never depend on it.
  ExecPolicy exec;
  /// Resume per-shard from surviving journals instead of starting over.
  bool resume = false;
  /// Input format (kAuto sniffs once, up front).
  stream::DatasetFormat format = stream::DatasetFormat::kAuto;
  /// Input CSV dialect.
  CsvOptions csv;
  /// Process-mode supervision: max ms a forked worker may go without
  /// heartbeat progress before the coordinator's watchdog kills it.
  /// 0 disables the watchdog.
  uint64_t worker_deadline_ms = 30000;
  /// Restarts per worker after its first failed attempt (crash, non-zero
  /// exit, or watchdog kill) before the shard is quarantined. A restarted
  /// encode worker resumes from its journal and only redoes missing
  /// chunks.
  size_t max_worker_restarts = 2;
  /// Escape hatch for benchmarking the supervision overhead: false uses
  /// the PR 9 fork-and-block path (no heartbeats, no watchdog, no
  /// restarts). Thread-mode workers are never supervised.
  bool supervise = true;
};

/// Observability of one sharded release.
struct ShardStats {
  size_t rows = 0;
  size_t shards = 0;
  size_t empty_shards = 0;
  size_t resumed_chunks = 0;  ///< thread mode only (children don't report)
  size_t peak_resident_rows = 0;  ///< largest chunk any worker held
  size_t released_bytes = 0;      ///< total bytes across shard files
  size_t workers_killed = 0;    ///< hung workers SIGKILLed by the watchdog
  size_t worker_restarts = 0;   ///< failed worker attempts that were retried
  size_t swept_files = 0;       ///< orphaned working files removed at start

  double count_seconds = 0;      ///< row-count pass (0 for 1 shard / cols)
  double summarize_seconds = 0;  ///< phase 1 wall time
  double merge_fit_seconds = 0;  ///< merge tree + plan fit
  double encode_seconds = 0;     ///< phase 2 wall time
  double finalize_seconds = 0;   ///< hashing shards + meta-manifest commit

  std::string Render() const;
};

/// Startup debris sweep: removes orphaned *working* files left around the
/// `out_path` release stem by a previously crashed run — `.sum` summary
/// hand-offs, `.partial` staging files, `.manifest` journals, `.tmp`
/// atomic-writer temporaries and `.hb` heartbeat files attached to
/// `<out_path>.shard<k>`, plus a torn `<out_path>.tmp`. Live artifacts
/// are never touched: shard payload files (`.shard<k>` with no working
/// suffix), the published meta-manifest, the input, and anything under a
/// different stem all survive. Returns the number of files removed.
/// `ShardedCustodian::Release` runs this automatically on fresh
/// (non-resume) runs; `--resume` skips it because the journals ARE the
/// resume state.
Result<size_t> SweepOrphanedShardFiles(const std::string& out_path);

/// Stateless driver of the sharded workflow.
class ShardedCustodian {
 public:
  /// Runs the full pipeline: plan shards over `input_path`, summarize,
  /// merge + fit, encode into `<out_path>.shard<k>` files, publish the
  /// manifest-of-manifests at `out_path`. Returns the fitted plan (the
  /// custodian's decoding key). `stats`, if non-null, is reset and filled.
  static Result<TransformPlan> Release(const std::string& input_path,
                                       const std::string& out_path,
                                       const ShardOptions& options,
                                       ShardStats* stats = nullptr);
};

}  // namespace popp::shard

#endif  // POPP_SHARD_PIPELINE_H_
