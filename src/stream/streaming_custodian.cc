#include "stream/streaming_custodian.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <utility>

#include "data/csv.h"
#include "parallel/parallel_for.h"
#include "transform/compiled.h"
#include "transform/serialize.h"
#include "util/crc64.h"
#include "util/rng.h"

namespace popp::stream {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Per-attribute result slot of a chunk encode. Index-addressed so the
/// parallel scan is write-disjoint; merged serially afterwards in a fixed
/// order, keeping the outcome thread-count independent.
struct AttrScan {
  Status status = Status::Ok();
  size_t first_ood_row = 0;  ///< 1-based stream row of `status`'s value
  size_t ood = 0;
};

/// Why the encode refuses `x`: it lies outside the fitted hull, or it lies
/// inside a permutation piece that was not fitted on it (Apply would snap
/// it onto another value's image).
std::string RejectMessage(const Schema& schema, size_t attr, AttrValue x,
                          const CompiledTransform& ct, OodPolicy policy,
                          size_t stream_row) {
  const DomainBounds& hull = ct.bounds();
  std::ostringstream oss;
  oss << "out-of-domain value at stream row " << stream_row << ": attribute '"
      << schema.AttributeName(attr) << "' = " << FormatCsvCell(x);
  if (!hull.Contains(x)) {
    oss << " is outside the fitted domain [" << FormatCsvCell(hull.lo) << ", "
        << FormatCsvCell(hull.hi)
        << "] (active ood-policy: reject; rerun with --ood-policy clamp or "
           "extend-piece, or refit the plan on newer data)";
    return oss.str();
  }
  const auto [lo, hi] = ct.PieceDomain(x);
  oss << " is inside the fitted domain [" << FormatCsvCell(hull.lo) << ", "
      << FormatCsvCell(hull.hi) << "] but not among the values its "
      << "permutation piece [" << FormatCsvCell(lo) << ", " << FormatCsvCell(hi)
      << "] was fitted on, so its image would collide with another value's "
         "(active ood-policy: "
      << ToString(policy)
      << "; rerun with --ood-policy clamp to accept the collision, or refit "
         "the plan on newer data)";
  return oss.str();
}

/// Encodes one chunk in place through the compiled kernels. Values the plan
/// does not cover (CompiledTransform::Covers) are out of domain: kClamp
/// encodes them lossily, kExtendPiece extrapolates those beyond the hull,
/// and every other one is refused. Returns the lexicographically first
/// (row, attribute) refusal.
Status EncodeChunk(Dataset* chunk, const CompiledPlan& compiled,
                   OodPolicy policy, const ExecPolicy& exec,
                   size_t rows_before, StreamStats* stats) {
  const size_t num_attrs = compiled.NumAttributes();
  std::vector<AttrScan> scans(num_attrs);
  ParallelFor(exec, num_attrs, [&](size_t attr) {
    AttrScan& scan = scans[attr];
    const CompiledTransform& ct = compiled.transform(attr);
    auto& col = chunk->MutableColumn(attr);
    for (size_t r = 0; r < col.size(); ++r) {
      const AttrValue x = col[r];
      if (ct.Covers(x)) {
        col[r] = ct.Apply(x);
        continue;
      }
      scan.ood++;
      if (policy == OodPolicy::kClamp) {
        // Inside the hull this is Apply's nearest-fitted-value snap.
        col[r] = ct.EncodeClamped(x);
        continue;
      }
      if (policy == OodPolicy::kExtendPiece && !ct.bounds().Contains(x)) {
        col[r] = ct.EncodeExtended(x);
        continue;
      }
      if (scan.status.ok()) {
        scan.first_ood_row = rows_before + r + 1;
        scan.status = Status::OutOfRange(RejectMessage(
            chunk->schema(), attr, x, ct, policy, scan.first_ood_row));
      }
    }
  });
  // Serial merge in fixed order; report the first refused (row, attribute)
  // in stream order.
  const AttrScan* reject = nullptr;
  for (size_t attr = 0; attr < num_attrs; ++attr) {
    const AttrScan& scan = scans[attr];
    if (stats != nullptr) {
      stats->ood_total += scan.ood;
      stats->ood_by_attribute[attr] += scan.ood;
    }
    if (!scan.status.ok() &&
        (reject == nullptr || scan.first_ood_row < reject->first_ood_row)) {
      reject = &scan;
    }
  }
  if (reject != nullptr) {
    return reject->status;
  }
  return Status::Ok();
}

/// The encode pass: read, encode, append — chunk by chunk.
Status EncodeStream(ChunkReader& reader, ChunkWriter& writer,
                    const TransformPlan& plan, const StreamOptions& options,
                    StreamStats* stats) {
  POPP_RETURN_IF_ERROR(
      writer.BeginStream(StreamFingerprint(plan, options)));
  const size_t completed = writer.CompletedChunks();
  size_t chunk_index = 0;
  size_t rows_before = 0;
  const CompiledPlan compiled = CompiledPlan::Compile(plan);
  for (;;) {
    const auto encode_start = Clock::now();
    Result<Dataset> next = reader.NextChunk(options.chunk_rows);
    if (!next.ok()) return next.status();
    Dataset chunk = std::move(next).value();
    if (chunk.NumRows() == 0) break;
    POPP_RETURN_IF_ERROR(CheckFiniteValues(chunk, rows_before));
    if (chunk.NumAttributes() != plan.NumAttributes()) {
      return Status::InvalidArgument(
          "stream-release: chunk has " + std::to_string(chunk.NumAttributes()) +
          " attributes but the plan covers " +
          std::to_string(plan.NumAttributes()));
    }
    if (stats != nullptr) {
      if (stats->ood_by_attribute.empty()) {
        stats->ood_by_attribute.assign(plan.NumAttributes(), 0);
        for (size_t attr = 0; attr < chunk.NumAttributes(); ++attr) {
          stats->attribute_names.push_back(
              chunk.schema().AttributeName(attr));
        }
      }
      stats->rows += chunk.NumRows();
      stats->chunks++;
      stats->peak_resident_rows =
          std::max(stats->peak_resident_rows, chunk.NumRows());
    }
    if (chunk_index < completed) {
      // An interrupted run already persisted (and checksummed) this chunk;
      // it was read only so the sink can cross-check its row count.
      POPP_RETURN_IF_ERROR(writer.NoteSkipped(chunk_index, chunk.NumRows()));
      if (stats != nullptr) {
        stats->resumed_chunks++;
      }
      ++chunk_index;
      rows_before += chunk.NumRows();
      continue;
    }
    POPP_RETURN_IF_ERROR(EncodeChunk(&chunk, compiled, options.ood_policy,
                                     options.exec, rows_before, stats));
    ++chunk_index;
    rows_before += chunk.NumRows();
    if (stats != nullptr) {
      stats->encode_seconds += SecondsSince(encode_start);
    }
    const auto write_start = Clock::now();
    POPP_RETURN_IF_ERROR(writer.Append(chunk));
    if (stats != nullptr) {
      stats->write_seconds += SecondsSince(write_start);
    }
  }
  return writer.Close();
}

}  // namespace

std::string StreamFingerprint(const TransformPlan& plan,
                              const StreamOptions& options) {
  std::ostringstream oss;
  oss << "chunk_rows=" << options.chunk_rows
      << " ood=" << ToString(options.ood_policy) << " seed=" << options.seed
      << " plan_crc=" << Crc64Hex(Crc64(SerializePlan(plan)));
  return oss.str();
}

std::string StreamStats::Render() const {
  std::ostringstream oss;
  oss << "streamed " << rows << " rows in " << chunks
      << " chunks (peak resident rows: " << peak_resident_rows << ")\n";
  if (resumed_chunks > 0) {
    oss << "resumed: " << resumed_chunks
        << " chunks reused from the interrupted run\n";
  }
  oss << "out-of-domain values: " << ood_total << "\n";
  for (size_t attr = 0; attr < ood_by_attribute.size(); ++attr) {
    if (ood_by_attribute[attr] > 0) {
      const std::string name = attr < attribute_names.size()
                                   ? attribute_names[attr]
                                   : "attr" + std::to_string(attr);
      oss << "  ood[" << name << "]: " << ood_by_attribute[attr] << "\n";
    }
  }
  oss.precision(3);
  oss << std::fixed << "timings: summarize " << summarize_seconds << "s, fit "
      << fit_seconds << "s, encode " << encode_seconds << "s, write "
      << write_seconds << "s\n";
  return oss.str();
}

Status SummarizeChunks(ChunkReader& reader, size_t chunk_rows,
                       size_t first_row,
                       std::optional<IncrementalSummary>* summary,
                       std::vector<std::string>* class_names) {
  summary->reset();
  if (class_names != nullptr) class_names->clear();
  for (;;) {
    Result<Dataset> next = reader.NextChunk(chunk_rows);
    if (!next.ok()) return next.status();
    const Dataset& chunk = next.value();
    if (chunk.NumRows() == 0) return Status::Ok();
    if (chunk.NumAttributes() == 0) {
      return Status::InvalidArgument(
          "the input has no attributes to fit a plan on");
    }
    const size_t rows_before =
        summary->has_value() ? (*summary)->NumRows() : 0;
    POPP_RETURN_IF_ERROR(CheckFiniteValues(chunk, first_row + rows_before));
    if (!summary->has_value()) summary->emplace(chunk.NumAttributes());
    (*summary)->Absorb(chunk);
    if (class_names != nullptr) *class_names = chunk.schema().class_names();
  }
}

Result<TransformPlan> StreamingCustodian::Release(ChunkReader& reader,
                                                  ChunkWriter& writer,
                                                  const StreamOptions& options,
                                                  StreamStats* stats) {
  POPP_CHECK_MSG(options.chunk_rows > 0, "chunk_rows must be >= 1");
  if (stats != nullptr) {
    *stats = StreamStats{};
  }
  // Pass 1: fold every chunk into the incremental summary.
  const auto summarize_start = Clock::now();
  std::optional<IncrementalSummary> summary;
  POPP_RETURN_IF_ERROR(
      SummarizeChunks(reader, options.chunk_rows, 0, &summary));
  if (!summary.has_value()) {
    return Status::InvalidArgument(
        "stream-release: the input stream has no data rows to fit on");
  }
  if (stats != nullptr) {
    stats->summarize_seconds = SecondsSince(summarize_start);
  }
  // Fit: byte-identical to the batch Custodian for equal seed and data.
  const auto fit_start = Clock::now();
  Rng rng(options.seed);
  TransformPlan plan = TransformPlan::CreateFromSummaries(
      summary->SummarizeAll(), options.transform, rng, options.exec);
  summary.reset();
  if (stats != nullptr) {
    stats->fit_seconds = SecondsSince(fit_start);
  }
  // Pass 2: rewind and encode.
  POPP_RETURN_IF_ERROR(reader.Rewind());
  POPP_RETURN_IF_ERROR(
      EncodeStream(reader, writer, plan, options, stats));
  return plan;
}

Result<TransformPlan> StreamingCustodian::ReleaseWithPlan(
    ChunkReader& reader, ChunkWriter& writer, TransformPlan plan,
    const StreamOptions& options, StreamStats* stats) {
  POPP_CHECK_MSG(options.chunk_rows > 0, "chunk_rows must be >= 1");
  POPP_CHECK_MSG(plan.NumAttributes() > 0, "ReleaseWithPlan needs a plan");
  if (stats != nullptr) {
    *stats = StreamStats{};
  }
  POPP_RETURN_IF_ERROR(
      EncodeStream(reader, writer, plan, options, stats));
  return plan;
}

}  // namespace popp::stream
