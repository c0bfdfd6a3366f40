#include "stream/chunk_io.h"

#include <algorithm>
#include <utility>

namespace popp::stream {

// ------------------------------------------------------------------------
// ChunkReader

Result<size_t> ChunkReader::SkipRows(size_t rows) {
  size_t skipped = 0;
  while (skipped < rows) {
    const size_t want = std::min<size_t>(rows - skipped, size_t{4096});
    auto chunk = NextChunk(want);
    if (!chunk.ok()) return chunk.status();
    if (chunk.value().NumRows() == 0) break;
    skipped += chunk.value().NumRows();
  }
  return skipped;
}

// ------------------------------------------------------------------------
// CsvChunkReader

CsvChunkReader::CsvChunkReader(std::string path, CsvOptions options,
                               size_t buffer_bytes)
    : path_(std::move(path)),
      options_(options),
      buffer_bytes_(buffer_bytes > 0 ? buffer_bytes : 1) {}

Status CsvChunkReader::EnsureOpen() {
  if (open_) return Status::Ok();
  POPP_RETURN_IF_ERROR(in_.Open(path_));
  open_ = true;
  eof_ = false;
  parser_ = std::make_unique<CsvRecordParser>(options_.delimiter);
  builder_ = std::make_unique<CsvDatasetBuilder>(options_);
  buffer_.resize(buffer_bytes_);
  return Status::Ok();
}

Result<Dataset> CsvChunkReader::NextChunk(size_t max_rows) {
  POPP_CHECK_MSG(max_rows > 0, "NextChunk needs max_rows >= 1");
  POPP_RETURN_IF_ERROR(EnsureOpen());
  while (builder_->PendingRows() < max_rows) {
    // Records left in the parser from the last read come first; only when
    // it holds no complete record is more of the file read.
    auto got = parser_->Next(&record_);
    if (!got.ok()) return got.status();
    if (got.value()) {
      POPP_RETURN_IF_ERROR(builder_->Consume(record_));
      continue;
    }
    if (eof_) break;
    auto read = in_.Read(buffer_.data(), buffer_.size());
    if (!read.ok()) return read.status();
    if (read.value() > 0) {
      parser_->Feed(buffer_.data(), read.value());
    } else {
      eof_ = true;
      parser_->Finish();
    }
  }
  if (eof_ && builder_->PendingRows() == 0) {
    // End of stream; surfaces "empty CSV input" on a schema-less file.
    POPP_RETURN_IF_ERROR(builder_->Finish());
  }
  return builder_->TakeChunk();
}

Status CsvChunkReader::Rewind() {
  in_.Close();
  open_ = false;
  eof_ = false;
  parser_.reset();
  builder_.reset();
  return Status::Ok();
}

// ------------------------------------------------------------------------
// DatasetChunkReader

DatasetChunkReader::DatasetChunkReader(const Dataset* data) : data_(data) {
  POPP_CHECK_MSG(data_ != nullptr, "DatasetChunkReader needs a dataset");
}

Result<Dataset> DatasetChunkReader::NextChunk(size_t max_rows) {
  POPP_CHECK_MSG(max_rows > 0, "NextChunk needs max_rows >= 1");
  const size_t end = std::min(data_->NumRows(), next_row_ + max_rows);
  std::vector<size_t> rows;
  rows.reserve(end - next_row_);
  for (size_t r = next_row_; r < end; ++r) {
    rows.push_back(r);
  }
  next_row_ = end;
  return data_->Select(rows);
}

Status DatasetChunkReader::Rewind() {
  next_row_ = 0;
  return Status::Ok();
}

// ------------------------------------------------------------------------
// CsvChunkWriter

CsvChunkWriter::CsvChunkWriter(std::string path, CsvOptions options)
    : path_(std::move(path)), options_(options) {}

Status CsvChunkWriter::Append(const Dataset& chunk) {
  if (out_ == nullptr) {
    out_ = std::make_unique<fault::AtomicFileWriter>(path_);
    POPP_RETURN_IF_ERROR(out_->Open());
  }
  CsvOptions chunk_options = options_;
  chunk_options.has_header = options_.has_header && !wrote_header_;
  wrote_header_ = true;
  text_.clear();
  AppendCsv(chunk, chunk_options, &text_);
  return out_->Append(text_);
}

Status CsvChunkWriter::Close() {
  if (out_ == nullptr) return Status::Ok();
  const Status committed = out_->Commit();
  out_.reset();
  return committed;
}

// ------------------------------------------------------------------------
// DatasetChunkWriter

Status DatasetChunkWriter::Append(const Dataset& chunk) {
  if (!have_any_) {
    collected_ = chunk;
    have_any_ = true;
    return Status::Ok();
  }
  if (chunk.NumAttributes() != collected_.NumAttributes()) {
    return Status::InvalidArgument("chunk attribute count mismatch");
  }
  // The class dictionary grows append-only across chunks, so ids agree
  // once the collected schema has caught up with this chunk's names.
  for (const std::string& name : chunk.schema().class_names()) {
    collected_.mutable_schema().GetOrAddClass(name);
  }
  for (size_t r = 0; r < chunk.NumRows(); ++r) {
    collected_.AddRow(chunk.Row(r), chunk.Label(r));
  }
  return Status::Ok();
}

}  // namespace popp::stream
