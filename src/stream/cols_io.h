#ifndef POPP_STREAM_COLS_IO_H_
#define POPP_STREAM_COLS_IO_H_

#include <memory>
#include <string>
#include <string_view>

#include "data/cols.h"
#include "data/csv.h"
#include "fault/mmap.h"
#include "stream/chunk_io.h"

/// \file
/// Chunked reads of popp-cols containers, and the format switch that lets
/// every pipeline stage (stream-release, batch release, risk trials,
/// attack batteries) consume either CSV or popp-cols through one factory.
///
/// The cols reader is zero-copy on the hot path: the container is mapped
/// (or buffered when mapping is unavailable or a test forces tiny read
/// granularity), validated once, and chunks are materialized straight out
/// of the mapped extents. Unlike the CSV reader's append-only class
/// dictionary, a cols chunk carries the full class dictionary up front —
/// a strict superset of what CSV streaming would have revealed by the
/// same row, which the chunk contract permits (ids never move).

namespace popp::stream {

/// The on-disk dataset formats the pipeline can read and write.
enum class DatasetFormat {
  kAuto,  ///< sniff the file: 'poppcols' magic -> kCols, else kCsv
  kCsv,
  kCols,
};

/// Parses a --format / --to flag value ("csv", "cols", "auto").
Result<DatasetFormat> ParseDatasetFormat(std::string_view name);

/// Flag-spelling of a format ("csv", "cols", "auto").
std::string_view DatasetFormatName(DatasetFormat format);

/// Resolves kAuto by reading the file's first bytes; kCsv/kCols pass
/// through untouched. kNotFound if the file does not exist.
Result<DatasetFormat> SniffDatasetFormat(const std::string& path,
                                         DatasetFormat requested);

/// Opens a chunk reader for `path` in the given (or sniffed) format.
/// `buffer_bytes` is the read granularity for both backends' buffered
/// paths; tests shrink it to 1/2/7 bytes to force extent/record seams.
Result<std::unique_ptr<ChunkReader>> MakeChunkReader(
    const std::string& path, DatasetFormat format = DatasetFormat::kAuto,
    CsvOptions options = {}, size_t buffer_bytes = 1 << 16);

/// Streams a popp-cols container in bounded chunk copies over a zero-copy
/// validated view. Open + full validation happen on the first NextChunk,
/// mirroring CsvChunkReader's lazy-open error timing.
class ColsChunkReader : public ChunkReader {
 public:
  /// `prefer_mmap` false forces the buffered fallback (seam tests);
  /// `buffer_bytes` is its read granularity.
  explicit ColsChunkReader(std::string path, bool prefer_mmap = true,
                           size_t buffer_bytes = 1 << 16);

  /// In-memory variant for oracles: adopts serialized container bytes,
  /// no file involved.
  static std::unique_ptr<ColsChunkReader> FromBytes(std::string bytes);

  Result<Dataset> NextChunk(size_t max_rows) override;
  Status Rewind() override;
  /// O(1): validates once, then moves the row cursor — no rows are
  /// materialized (the container's dictionary is complete up front, so
  /// skipping cannot starve the class dictionary).
  Result<size_t> SkipRows(size_t rows) override;

 private:
  ColsChunkReader() = default;
  Status EnsureOpen();

  std::string path_;
  bool prefer_mmap_ = true;
  size_t buffer_bytes_ = 1 << 16;
  bool from_bytes_ = false;
  std::string owned_bytes_;
  fault::MappedFile map_;
  ColsView view_;
  bool open_ = false;
  size_t next_row_ = 0;
};

}  // namespace popp::stream

#endif  // POPP_STREAM_COLS_IO_H_
