#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

/// \file
/// In-memory spans recorded around the benchmark's calls into the library,
/// and the per-layer ledger built from them.
///
/// A span is (name, start, end, parent, request). A layer's self time is
/// its spans' durations minus the time their child spans cover; the self
/// time of a root span is the part of the wall time no layer claimed, and
/// the ledger prints it as `unattributed`. Spans are kept in memory and
/// written out (JSON lines) only when the run ends.
///
/// Two kinds of span exist. A *timed* span brackets a real call (Begin/End
/// around `CsvChunkReader::NextChunk`, `ChunkWriter::Append`, `Call`). An
/// *estimate* span (Add) carries the duration of a layer's own public
/// function replayed on the same bytes (`ToCsvString`, `Crc64`,
/// `ParseCols`, ...), placed under the timed span whose work it splits.
/// The replays themselves cost wall time; that time is recorded under the
/// name `trace.replay`, so tracing overhead shows as its own ledger line.

namespace perfbench {

struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int64_t parent = -1;   ///< index of the parent span, -1 for a root
  int64_t request = -1;  ///< request id; spans of one request share it
};

class Tracer {
 public:
  /// Opens a timed span now; returns its id.
  int64_t Begin(const std::string& name, int64_t parent = -1,
                int64_t request = -1);
  /// Closes a timed span now.
  void End(int64_t id);
  /// Records a span with explicit bounds (estimates, stage durations).
  int64_t Add(const std::string& name, double start, double end,
              int64_t parent = -1, int64_t request = -1);

  const std::vector<Span>& spans() const { return spans_; }
  double Duration(int64_t id) const {
    return spans_[id].end - spans_[id].start;
  }

  /// Appends another tracer's spans (ids are rebased).
  void Merge(const Tracer& other);

  /// Self time per span name under each root span named `root`, one map
  /// per such root (a request, a release). The root's own self time is
  /// reported as "unattributed".
  std::vector<std::map<std::string, double>> SelfTimesPerRoot(
      const std::string& root) const;
  /// The same, summed over all roots named `root`.
  std::map<std::string, double> SelfTimes(const std::string& root) const;

  /// Writes one JSON object per span.
  bool WriteJsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// A printed ledger: layer self times over a wall time.
struct Ledger {
  std::string title;
  double wall = 0;  ///< the root spans' total duration
  std::map<std::string, double> self;

  /// Closed when the named layers account for the wall time within a
  /// tenth: |unattributed| <= wall / 10, and no layer is negative by more
  /// than that either (an estimate may not claim more than its parent).
  bool Closed() const;
  double Get(const std::string& name) const;
  /// Human-readable rendering, largest line first.
  std::string Render(const std::string& unit, double scale) const;
};

Ledger MakeLedger(const Tracer& tracer, const std::string& root,
                  const std::string& title);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
