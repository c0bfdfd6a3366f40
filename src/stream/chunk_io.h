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
/// The CSV reader is byte-compatible with ReadCsv; the CSV file sink
/// (ResumableCsvChunkWriter, stream/manifest.h) writes the header once, so
/// its chunks concatenate to exactly the bytes a one-shot WriteCsv would
/// produce.

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
  /// remain) and returns the count actually skipped. Skipped rows need
  /// not reach the class dictionary, so the ClassIds of later chunks may
  /// differ from a full read's (labels are compared by name, and the
  /// shard merge remaps them). The default drains chunks; the CSV reader
  /// passes records without parsing them, and popp-cols moves a cursor.
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
  /// run. StreamingCustodian re-reads those chunks for NoteSkipped's
  /// row-count cross-check but neither re-encodes nor re-appends them.
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
  /// Passes rows as records without parsing their cells. The file's first
  /// record still goes through the builder: the header, or without one
  /// the first row, which fixes the field count and counts as skipped. So
  /// the schema, the "empty CSV input" error and line numbers are a full
  /// read's, and a malformed skipped row is reported by whoever reads it.
  Result<size_t> SkipRows(size_t rows) override;

 private:
  Status EnsureOpen();
  /// Feeds the parser the next window of the file, or at end of file
  /// sets eof_ and calls Finish. Callers check eof_ first.
  Status ReadWindow();

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

/// Collects chunks into one in-memory dataset (tests and the oracle use
/// this to compare a streamed release against the batch release). The
/// file sink is ResumableCsvChunkWriter (stream/manifest.h).
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
