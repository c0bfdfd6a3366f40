#ifndef POPP_STREAM_STREAMING_CUSTODIAN_H_
#define POPP_STREAM_STREAMING_CUSTODIAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/schema.h"
#include "parallel/exec_policy.h"
#include "stream/chunk_io.h"
#include "stream/ood_policy.h"
#include "transform/plan.h"
#include "util/status.h"

/// \file
/// Bounded-memory release: the Custodian workflow applied chunk by chunk.
/// Memory stays O(chunk_rows + #distinct values); the relation itself is
/// never materialized. The streamed release is bit-identical to the batch
/// `Custodian::Release` output because (a) the two-pass fit reconstructs
/// per-attribute summaries equal to the batch ones, (b) the plan fit
/// replicates the batch RNG discipline exactly, and (c) encoding is a pure
/// per-value map, so chunking cannot change any byte.

namespace popp::stream {

/// Parameters of a streamed release.
struct StreamOptions {
  /// Rows per chunk — the memory bound. Also the read granularity of the
  /// fit pass.
  size_t chunk_rows = 4096;

  /// What to do with values outside the fitted plan's active-domain hull.
  /// Never triggers in the default two-pass mode (the fit sees every row).
  OodPolicy ood_policy = OodPolicy::kReject;

  /// 0 (default): two-pass fit — summarize the whole stream, rewind,
  /// encode. > 0: fit the plan on the first `fit_rows` rows only; the
  /// remainder of the stream relies on `ood_policy` for unseen values.
  size_t fit_rows = 0;

  /// How the plan is sampled (forwarded to TransformPlan).
  PiecewiseOptions transform;

  /// Randomness of the encoding; equal seeds + equal data give a release
  /// byte-identical to a batch Custodian with the same seed.
  uint64_t seed = 1;

  /// Thread policy for the fit and the per-chunk encode. Any thread count
  /// produces bit-identical output (PR 2 determinism contract).
  ExecPolicy exec;
};

/// Observability of one streamed release.
struct StreamStats {
  size_t rows = 0;            ///< data rows released
  size_t chunks = 0;          ///< chunks processed in the encode pass
  size_t resumed_chunks = 0;  ///< chunks reused from an interrupted run
  size_t peak_resident_rows = 0;  ///< largest chunk held in memory
  size_t refits = 0;          ///< plan refits under OodPolicy::kRefit
  size_t ood_total = 0;       ///< out-of-domain values across attributes
  std::vector<size_t> ood_by_attribute;  ///< OOD hits per attribute
  std::vector<std::string> attribute_names;  ///< from the stream's schema

  double summarize_seconds = 0;  ///< pass 1: reading + absorbing chunks
  double fit_seconds = 0;        ///< plan sampling (including refits)
  double encode_seconds = 0;     ///< pass 2: reading + transforming chunks
  double write_seconds = 0;      ///< appending released chunks to the sink

  /// Human-readable rendering (what the CLI prints). Only attributes with
  /// OOD hits are listed.
  std::string Render() const;
};

/// Identifies one release configuration for the resumable sink's journal:
/// two runs with equal fingerprints encode identical chunk sequences, so
/// chunks one run persisted are valid for the other. The plan CRC folds in
/// the input data (the fitted summaries determine the plan) as well as the
/// transform options and seed. The sharded pipeline reuses it as the
/// manifest-of-manifests' release identity.
std::string StreamFingerprint(const TransformPlan& plan,
                              const StreamOptions& options);

/// Stateless driver of the streamed workflow.
class StreamingCustodian {
 public:
  /// Fits a plan from the stream (two-pass by default, prefix when
  /// `options.fit_rows > 0`), rewinds the reader, then encodes and appends
  /// every chunk. Returns the final plan (the custodian's decoding key —
  /// after a refit, the refitted plan). `stats`, if non-null, is reset and
  /// filled.
  static Result<TransformPlan> Release(ChunkReader& reader,
                                       ChunkWriter& writer,
                                       const StreamOptions& options,
                                       StreamStats* stats = nullptr);

  /// Encodes the stream with an existing plan (e.g. loaded via
  /// transform/serialize) — single pass, no rewind. `options.fit_rows` is
  /// ignored; `ood_policy` governs values the plan has never seen.
  static Result<TransformPlan> ReleaseWithPlan(ChunkReader& reader,
                                               ChunkWriter& writer,
                                               TransformPlan plan,
                                               const StreamOptions& options,
                                               StreamStats* stats = nullptr);
};

}  // namespace popp::stream

#endif  // POPP_STREAM_STREAMING_CUSTODIAN_H_
