#include "shard/planner.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace popp::shard {

std::vector<ShardRange> SplitRows(size_t total_rows, size_t num_shards) {
  POPP_CHECK_MSG(num_shards > 0, "SplitRows needs at least one shard");
  std::vector<ShardRange> ranges(num_shards);
  const size_t base = total_rows / num_shards;
  const size_t extra = total_rows % num_shards;
  size_t begin = 0;
  for (size_t k = 0; k < num_shards; ++k) {
    const size_t take = base + (k < extra ? 1 : 0);
    ranges[k] = ShardRange{begin, begin + take};
    begin += take;
  }
  return ranges;
}

Result<size_t> CountRows(const std::string& path,
                         stream::DatasetFormat format, CsvOptions options) {
  auto reader = stream::MakeChunkReader(path, format, options);
  if (!reader.ok()) return reader.status();
  // SkipRows is the counting primitive: the cols backend answers from its
  // validated header in O(1); CSV scans its records in bounded memory.
  return reader.value()->SkipRows(std::numeric_limits<size_t>::max());
}

RangeChunkReader::RangeChunkReader(std::unique_ptr<stream::ChunkReader> inner,
                                   ShardRange range)
    : inner_(std::move(inner)), range_(range) {
  POPP_CHECK_MSG(inner_ != nullptr, "RangeChunkReader needs a reader");
}

Status RangeChunkReader::EnsurePositioned() {
  if (positioned_) return Status::Ok();
  if (range_.begin > 0) {
    auto skipped = inner_->SkipRows(range_.begin);
    if (!skipped.ok()) return skipped.status();
    if (skipped.value() != range_.begin) {
      return Status::InvalidArgument(
          "shard range starts at row " + std::to_string(range_.begin) +
          " but the stream holds only " + std::to_string(skipped.value()) +
          " rows — the input changed since the shard layout was planned");
    }
  }
  positioned_ = true;
  return Status::Ok();
}

Result<Dataset> RangeChunkReader::NextChunk(size_t max_rows) {
  POPP_CHECK_MSG(max_rows > 0, "NextChunk needs max_rows >= 1");
  if (range_.empty()) return Dataset();
  size_t want = max_rows;
  if (!range_.open()) {
    const size_t remaining = range_.rows() - emitted_;
    if (remaining == 0) return Dataset();
    want = std::min(want, remaining);
  }
  POPP_RETURN_IF_ERROR(EnsurePositioned());
  auto chunk = inner_->NextChunk(want);
  if (chunk.ok()) {
    emitted_ += chunk.value().NumRows();
  }
  return chunk;
}

Status RangeChunkReader::Rewind() {
  POPP_RETURN_IF_ERROR(inner_->Rewind());
  emitted_ = 0;
  positioned_ = false;
  return Status::Ok();
}

}  // namespace popp::shard
