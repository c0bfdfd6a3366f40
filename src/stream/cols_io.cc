#include "stream/cols_io.h"

#include <algorithm>
#include <utility>

#include "fault/file.h"

namespace popp::stream {

// ------------------------------------------------------------------------
// Format switch

Result<DatasetFormat> ParseDatasetFormat(std::string_view name) {
  if (name == "auto") return DatasetFormat::kAuto;
  if (name == "csv") return DatasetFormat::kCsv;
  if (name == "cols") return DatasetFormat::kCols;
  return Status::InvalidArgument("unknown dataset format '" +
                                 std::string(name) +
                                 "' (expected csv, cols or auto)");
}

std::string_view DatasetFormatName(DatasetFormat format) {
  switch (format) {
    case DatasetFormat::kAuto:
      return "auto";
    case DatasetFormat::kCsv:
      return "csv";
    case DatasetFormat::kCols:
      return "cols";
  }
  return "auto";
}

Result<DatasetFormat> SniffDatasetFormat(const std::string& path,
                                         DatasetFormat requested) {
  if (requested != DatasetFormat::kAuto) return requested;
  fault::InputFile in;
  POPP_RETURN_IF_ERROR(in.Open(path));
  char prefix[8] = {};
  size_t have = 0;
  // Read loops: short reads are legal on this interface.
  while (have < sizeof(prefix)) {
    auto got = in.Read(prefix + have, sizeof(prefix) - have);
    if (!got.ok()) return got.status();
    if (got.value() == 0) break;
    have += got.value();
  }
  return LooksLikeCols(std::string_view(prefix, have)) ? DatasetFormat::kCols
                                                       : DatasetFormat::kCsv;
}

Result<std::unique_ptr<ChunkReader>> MakeChunkReader(const std::string& path,
                                                     DatasetFormat format,
                                                     CsvOptions options,
                                                     size_t buffer_bytes) {
  auto resolved = SniffDatasetFormat(path, format);
  if (!resolved.ok()) return resolved.status();
  if (resolved.value() == DatasetFormat::kCols) {
    return std::unique_ptr<ChunkReader>(std::make_unique<ColsChunkReader>(
        path, /*prefer_mmap=*/true, buffer_bytes));
  }
  return std::unique_ptr<ChunkReader>(
      std::make_unique<CsvChunkReader>(path, options, buffer_bytes));
}

// ------------------------------------------------------------------------
// ColsChunkReader

ColsChunkReader::ColsChunkReader(std::string path, bool prefer_mmap,
                                 size_t buffer_bytes)
    : path_(std::move(path)),
      prefer_mmap_(prefer_mmap),
      buffer_bytes_(buffer_bytes > 0 ? buffer_bytes : 1) {}

std::unique_ptr<ColsChunkReader> ColsChunkReader::FromBytes(
    std::string bytes) {
  std::unique_ptr<ColsChunkReader> reader(new ColsChunkReader());
  reader->from_bytes_ = true;
  reader->owned_bytes_ = std::move(bytes);
  return reader;
}

Status ColsChunkReader::EnsureOpen() {
  if (open_) return Status::Ok();
  std::string_view bytes;
  if (from_bytes_) {
    bytes = owned_bytes_;
  } else {
    POPP_RETURN_IF_ERROR(map_.Open(path_, prefer_mmap_, buffer_bytes_));
    bytes = std::string_view(map_.data(), map_.size());
  }
  auto view = ColsView::Open(bytes);
  if (!view.ok()) {
    if (!from_bytes_) {
      map_.Close();
      return Status(view.status().code(),
                    view.status().message() + " in '" + path_ + "'");
    }
    return view.status();
  }
  view_ = std::move(view).value();
  open_ = true;
  next_row_ = 0;
  return Status::Ok();
}

Result<Dataset> ColsChunkReader::NextChunk(size_t max_rows) {
  POPP_CHECK_MSG(max_rows > 0, "NextChunk needs max_rows >= 1");
  POPP_RETURN_IF_ERROR(EnsureOpen());
  const size_t begin = next_row_;
  const size_t end = std::min(view_.num_rows(), begin + max_rows);
  next_row_ = end;
  return view_.MaterializeRows(begin, end);
}

Result<size_t> ColsChunkReader::SkipRows(size_t rows) {
  POPP_RETURN_IF_ERROR(EnsureOpen());
  const size_t skipped = std::min(rows, view_.num_rows() - next_row_);
  next_row_ += skipped;
  return skipped;
}

Status ColsChunkReader::Rewind() {
  // Drop the mapping so pass 2 re-opens the file — one open per pass,
  // mirroring CsvChunkReader and keeping failpoint op counts honest.
  if (!from_bytes_) {
    map_.Close();
    open_ = false;
  }
  next_row_ = 0;
  return Status::Ok();
}

}  // namespace popp::stream
