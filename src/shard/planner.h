#ifndef POPP_SHARD_PLANNER_H_
#define POPP_SHARD_PLANNER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "stream/chunk_io.h"
#include "stream/cols_io.h"
#include "util/status.h"

/// \file
/// Row-range shard planning: split a dataset file into N disjoint,
/// contiguous row ranges and give each worker a bounded ChunkReader view
/// over its range. The split is deterministic in (total_rows, num_shards)
/// alone, so the coordinator and every worker — thread or forked process —
/// agree on the layout without communicating.

namespace popp::shard {

/// Half-open row range [begin, end). `kOpenEnd` marks an unbounded range
/// ("to end of stream"): the 1-shard degenerate layout uses it so the
/// single worker takes the exact single-process read path with no row
/// counting pass at all.
inline constexpr size_t kOpenEnd = SIZE_MAX;

struct ShardRange {
  size_t begin = 0;
  size_t end = 0;

  bool open() const { return end == kOpenEnd; }
  bool empty() const { return !open() && begin >= end; }
  /// Row count; only meaningful for bounded ranges.
  size_t rows() const { return open() ? 0 : end - begin; }
};

/// Splits [0, total_rows) into `num_shards` contiguous ranges in shard
/// order; the first total_rows % num_shards shards carry one extra row.
/// When total_rows < num_shards the trailing shards come back empty —
/// callers must tolerate zero-row shards.
std::vector<ShardRange> SplitRows(size_t total_rows, size_t num_shards);

/// Counts the data rows of a dataset file without materializing it: O(1)
/// header arithmetic for popp-cols; for CSV one bounded-memory record scan
/// (ChunkReader::SkipRows), which finds record boundaries but parses no
/// cell, so a malformed row is reported by the shard that owns it.
Result<size_t> CountRows(const std::string& path,
                         stream::DatasetFormat format = stream::DatasetFormat::kAuto,
                         CsvOptions options = {});

/// Bounded view over an owned inner reader: yields exactly the rows of
/// `range`. Positioning uses ChunkReader::SkipRows: a record scan over a
/// CSV prefix, an O(1) seek in popp-cols. The class dictionary then holds
/// the range's labels in their order of first appearance, not the whole
/// stream's; the coordinator's merge maps them to global ids. Rewind
/// repositions from the top (the two-pass fit re-reads).
class RangeChunkReader : public stream::ChunkReader {
 public:
  RangeChunkReader(std::unique_ptr<stream::ChunkReader> inner,
                   ShardRange range);

  Result<Dataset> NextChunk(size_t max_rows) override;
  Status Rewind() override;

 private:
  Status EnsurePositioned();

  std::unique_ptr<stream::ChunkReader> inner_;
  ShardRange range_;
  size_t emitted_ = 0;  ///< rows handed out within the range
  bool positioned_ = false;
};

}  // namespace popp::shard

#endif  // POPP_SHARD_PLANNER_H_
