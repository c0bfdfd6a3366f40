#ifndef POPP_STREAM_CHUNK_IO_H_
#define POPP_STREAM_CHUNK_IO_H_

#include <memory>
#include <string>
#include <vector>

#include "data/csv.h"
#include "data/dataset.h"
#include "fault/file.h"
#include "util/status.h"

/// \file
/// Chunked dataset I/O: iterate a relation in bounded row batches without
/// materializing it, and append released batches to a sink. Chunks of one
/// source share a consistent schema — attribute names are fixed by the
/// first chunk and the class-label dictionary grows append-only, so a
/// ClassId seen in chunk i means the same label in every chunk j >= i.
/// The CSV reader/writer pair is byte-compatible with ReadCsv/WriteCsv: a
/// stream of chunks written with a header on the first chunk concatenates
/// to exactly the bytes a one-shot WriteCsv would produce.

namespace popp::stream {

/// Pull-based source of row chunks.
class ChunkReader {
 public:
  virtual ~ChunkReader() = default;

  /// Reads up to `max_rows` rows (>= 1) into a fresh dataset chunk. An
  /// empty chunk signals end of stream. The chunk's schema includes every
  /// class label seen so far.
  virtual Result<Dataset> NextChunk(size_t max_rows) = 0;

  /// Rewinds to the first row (the two-pass fit re-reads its input).
  virtual Status Rewind() = 0;

  /// Advances past the next `rows` rows (or to end of stream if fewer
  /// remain) and returns the count actually skipped. The default drains
  /// chunks, so for the CSV backend skipped rows still feed the
  /// append-only class dictionary exactly as if they had been consumed —
  /// which is what keeps a shard worker's ClassIds aligned with the
  /// single-process stream. Random-access sources (popp-cols carries its
  /// full dictionary up front) override this with a cursor move.
  virtual Result<size_t> SkipRows(size_t rows);
};

/// Push-based sink for released chunks.
class ChunkWriter {
 public:
  virtual ~ChunkWriter() = default;

  /// Optional handshake, called once before the encode pass begins.
  /// `fingerprint` identifies the release configuration (chunking, OOD
  /// policy, seed, fitted plan); resumable sinks compare it against their
  /// journal to decide whether an interrupted run may be continued.
  virtual Status BeginStream(const std::string& fingerprint) {
    (void)fingerprint;
    return Status::Ok();
  }

  /// Number of leading chunks already durably written by an interrupted
  /// run. The driver re-reads (and, under kRefit, re-absorbs) those chunks
  /// for determinism but neither re-encodes nor re-appends them.
  virtual size_t CompletedChunks() const { return 0; }

  /// Driver notification for each skipped chunk, carrying the row count
  /// the stream actually produced — resumable sinks cross-check it
  /// against their journal and fail the resume if the input changed.
  virtual Status NoteSkipped(size_t chunk_index, size_t rows) {
    (void)chunk_index;
    (void)rows;
    return Status::Ok();
  }

  /// Appends one chunk. Chunks must share attribute count; later chunks
  /// may carry a larger class dictionary.
  virtual Status Append(const Dataset& chunk) = 0;

  /// Flushes and finalizes the sink.
  virtual Status Close() = 0;
};

/// Streams a CSV file in bounded memory: at most one chunk, one 64 KiB
/// read buffer and the parser's window (the unconsumed rest of the last
/// read plus the record it cuts) are resident. Shares the incremental
/// tokenizer with ReadCsv, so quoting, CRLF and missing-trailing-newline
/// semantics are identical — including quoted fields that span
/// read-buffer boundaries.
class CsvChunkReader : public ChunkReader {
 public:
  /// `buffer_bytes` is the file read granularity (tests shrink it to force
  /// records across buffer seams).
  explicit CsvChunkReader(std::string path, CsvOptions options = {},
                          size_t buffer_bytes = 1 << 16);

  Result<Dataset> NextChunk(size_t max_rows) override;
  Status Rewind() override;

 private:
  Status EnsureOpen();

  std::string path_;
  CsvOptions options_;
  size_t buffer_bytes_;
  fault::InputFile in_;
  bool open_ = false;
  bool eof_ = false;
  std::unique_ptr<CsvRecordParser> parser_;
  std::unique_ptr<CsvDatasetBuilder> builder_;
  CsvRecord record_;  // reused: its field views point into parser_
  std::vector<char> buffer_;
};

/// Adapts an in-memory dataset to the chunk interface (zero-copy views are
/// not possible with column-major storage, so chunks are row-range copies).
class DatasetChunkReader : public ChunkReader {
 public:
  explicit DatasetChunkReader(const Dataset* data);

  Result<Dataset> NextChunk(size_t max_rows) override;
  Status Rewind() override;

 private:
  const Dataset* data_;
  size_t next_row_ = 0;
};

/// Appends chunks to a CSV file; the header is written once, before the
/// first chunk, so the finished file equals a one-shot WriteCsv of the
/// concatenated chunks byte-for-byte. Publication is atomic: bytes are
/// staged in `<path>.tmp` and renamed into place by Close, so no partial
/// artifact ever appears under the final name. (For a journaled,
/// resumable sink see stream/manifest.h.)
class CsvChunkWriter : public ChunkWriter {
 public:
  explicit CsvChunkWriter(std::string path, CsvOptions options = {});

  Status Append(const Dataset& chunk) override;
  Status Close() override;

 private:
  std::string path_;
  CsvOptions options_;
  std::unique_ptr<fault::AtomicFileWriter> out_;
  bool wrote_header_ = false;
  std::string text_;  // reused for every chunk's CSV text
};

/// Collects chunks into one in-memory dataset (tests and the oracle use
/// this to compare a streamed release against the batch release).
class DatasetChunkWriter : public ChunkWriter {
 public:
  Status Append(const Dataset& chunk) override;
  Status Close() override { return Status::Ok(); }

  const Dataset& collected() const { return collected_; }

 private:
  Dataset collected_;
  bool have_any_ = false;
};

}  // namespace popp::stream

#endif  // POPP_STREAM_CHUNK_IO_H_
