#ifndef POPP_STREAM_MANIFEST_H_
#define POPP_STREAM_MANIFEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/csv.h"
#include "fault/file.h"
#include "stream/chunk_io.h"
#include "util/status.h"

/// \file
/// The crash-safe side of a streamed release.
///
/// `stream-release` never writes the output file directly. It appends
/// encoded chunks to `<out>.partial` and journals each durably written
/// chunk in `<out>.manifest`:
///
///     popp-manifest v1
///     fingerprint <release configuration fingerprint>
///     chunk <index> <rows> <bytes> <crc64>
///     ...
///     complete <chunks> <total_rows> <total_bytes>
///
/// A `chunk` line is appended only *after* the chunk's bytes are flushed
/// to the partial file, so the journal never over-claims. Closing appends
/// the `complete` record, renames the partial onto the final name
/// (atomic), and removes the manifest. At no point does a partial artifact
/// exist under the final name.
///
/// `--resume` replays this journal: the fingerprint is matched against the
/// new run's configuration, the partial file's prefix is re-verified
/// chunk-by-chunk against the journaled CRCs (a torn tail — bytes or
/// journal line — is truncated away), and the encode pass skips every
/// verified chunk. Because the fit and the encode are deterministic, a
/// resumed release is byte-identical to an uninterrupted one.

namespace popp::stream {

/// One journaled chunk: `rows` dataset rows encoded into `bytes` bytes of
/// CSV (chunk 0 includes the header) with the given CRC-64.
struct ManifestChunk {
  size_t index = 0;
  size_t rows = 0;
  size_t bytes = 0;
  uint64_t crc = 0;
};

/// A parsed manifest journal. Loading is deliberately lenient about the
/// tail: a torn final line (the crash may have hit the journal itself)
/// ends the chunk list instead of failing the load.
struct Manifest {
  std::string fingerprint;
  std::vector<ManifestChunk> chunks;
  bool complete = false;
};

/// Loads and parses a manifest. kNotFound if the file is missing,
/// kDataLoss if the header is unusable; a malformed chunk/complete line
/// merely ends the entry list (torn tail).
Result<Manifest> LoadManifest(const std::string& path);

/// Sink behavior knobs beyond the plain `--resume` switch; the sharded
/// release drives the non-defaults.
struct ResumeSinkOptions {
  /// Pick up a matching interrupted run instead of starting over.
  bool resume = false;

  /// Keep the journal (now holding its `complete` record) after Close
  /// instead of removing it. A multi-artifact release finalizes shards
  /// independently and deletes the journals only once the release-level
  /// manifest-of-manifests is committed, so a crash after one shard's
  /// rename still resumes that shard by verification, not re-encoding.
  bool keep_manifest_on_close = false;

  /// Prepended to the driver's fingerprint before it is journaled or
  /// matched. Shard writers salt in their shard identity (index, range,
  /// shard count) so a journal written under a different shard layout can
  /// never be mistaken for resumable state.
  std::string fingerprint_salt;
};

/// ChunkWriter that implements the journal + partial-file discipline above
/// and, when constructed with `resume = true`, picks up a matching
/// interrupted run instead of starting over.
class ResumableCsvChunkWriter : public ChunkWriter {
 public:
  explicit ResumableCsvChunkWriter(std::string path, CsvOptions options = {},
                                   bool resume = false);
  ResumableCsvChunkWriter(std::string path, CsvOptions options,
                          ResumeSinkOptions sink);

  Status BeginStream(const std::string& fingerprint) override;
  size_t CompletedChunks() const override { return verified_.size(); }
  Status NoteSkipped(size_t chunk_index, size_t rows) override;
  Status Append(const Dataset& chunk) override;
  Status Close() override;

  const std::string& partial_path() const { return partial_path_; }
  const std::string& manifest_path() const { return manifest_path_; }
  /// Chunks (and rows) carried over from the interrupted run, for
  /// observability. Zero unless resuming.
  size_t resumed_chunks() const { return verified_.size(); }
  size_t resumed_rows() const { return resumed_rows_; }

 private:
  Status StartFresh(const std::string& fingerprint);
  Status TryResume(const std::string& fingerprint, bool* resumed);

  std::string final_path_;
  std::string partial_path_;
  std::string manifest_path_;
  CsvOptions options_;
  ResumeSinkOptions sink_;

  bool began_ = false;
  bool closed_ = false;
  /// The final artifact already exists and verified against a complete
  /// journal — nothing left to write, Close just removes the manifest.
  bool already_complete_ = false;
  std::vector<ManifestChunk> verified_;
  size_t resumed_rows_ = 0;
  size_t next_index_ = 0;
  size_t total_rows_ = 0;
  size_t total_bytes_ = 0;
  fault::OutputFile partial_;
  fault::OutputFile journal_;
  std::string text_;  // reused for every chunk's CSV text
};

}  // namespace popp::stream

#endif  // POPP_STREAM_MANIFEST_H_
