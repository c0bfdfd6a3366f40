#include "stream/streaming_custodian.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <sstream>
#include <utility>

#include "data/csv.h"
#include "parallel/parallel_for.h"
#include "stream/incremental_summary.h"
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

std::string RejectMessage(const Schema& schema, size_t attr, AttrValue x,
                          const DomainBounds& hull, size_t stream_row) {
  std::ostringstream oss;
  oss << "out-of-domain value at stream row " << stream_row << ": attribute '"
      << schema.AttributeName(attr) << "' = " << FormatCsvCell(x)
      << " is outside the fitted domain [" << FormatCsvCell(hull.lo) << ", "
      << FormatCsvCell(hull.hi)
      << "] (active ood-policy: reject; rerun with --ood-policy clamp, "
         "extend-piece or refit, or refit the plan on newer data)";
  return oss.str();
}

/// Encodes one chunk in place through the compiled kernels. Returns the
/// lexicographically first (row, attribute) rejection if the policy is
/// kReject and the chunk holds out-of-domain values.
Status EncodeChunk(Dataset* chunk, const CompiledPlan& compiled,
                   OodPolicy policy, const ExecPolicy& exec,
                   size_t rows_before, StreamStats* stats) {
  const size_t num_attrs = compiled.NumAttributes();
  std::vector<AttrScan> scans(num_attrs);
  ParallelFor(exec, num_attrs, [&](size_t attr) {
    AttrScan& scan = scans[attr];
    const CompiledTransform& ct = compiled.transform(attr);
    // A copy, so the stores to col[r] below cannot alias the bounds.
    const DomainBounds hull = ct.bounds();
    auto& col = chunk->MutableColumn(attr);
    for (size_t r = 0; r < col.size(); ++r) {
      const AttrValue x = col[r];
      if (!hull.Contains(x)) {
        scan.ood++;
        switch (policy) {
          case OodPolicy::kReject:
            if (scan.status.ok()) {
              scan.first_ood_row = rows_before + r + 1;
              scan.status = Status::OutOfRange(RejectMessage(
                  chunk->schema(), attr, x, hull, scan.first_ood_row));
            }
            continue;
          case OodPolicy::kClamp:
            col[r] = ct.EncodeClamped(x);
            continue;
          case OodPolicy::kExtendPiece:
            col[r] = ct.EncodeExtended(x);
            continue;
          case OodPolicy::kRefit:
            // Unreachable: the refit path re-fits the plan on a summary
            // that includes this chunk before encoding it, so the hull
            // covers every value. Fall through to the exact encode.
            break;
        }
      }
      col[r] = ct.Apply(x);
    }
  });
  // Serial merge in fixed order; under kReject report the first offending
  // (row, attribute) in stream order.
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

/// Out-of-hull values of `chunk` per attribute under `compiled`.
std::vector<size_t> CountOod(const Dataset& chunk, const CompiledPlan& compiled,
                             const ExecPolicy& exec) {
  std::vector<size_t> ood(compiled.NumAttributes(), 0);
  ParallelFor(exec, ood.size(), [&](size_t attr) {
    const DomainBounds& hull = compiled.transform(attr).bounds();
    for (const AttrValue x : chunk.Column(attr)) ood[attr] += !hull.Contains(x);
  });
  return ood;
}

/// The encode pass: read, (refit), encode, append — chunk by chunk.
Status EncodeStream(ChunkReader& reader, ChunkWriter& writer,
                    TransformPlan& plan, const StreamOptions& options,
                    StreamStats* stats) {
  POPP_RETURN_IF_ERROR(
      writer.BeginStream(StreamFingerprint(plan, options)));
  const size_t completed = writer.CompletedChunks();
  size_t chunk_index = 0;
  std::unique_ptr<IncrementalSummary> running;  // kRefit only
  size_t rows_before = 0;
  CompiledPlan compiled = CompiledPlan::Compile(plan);
  for (;;) {
    const auto encode_start = Clock::now();
    Result<Dataset> next = reader.NextChunk(options.chunk_rows);
    if (!next.ok()) return next.status();
    Dataset chunk = std::move(next).value();
    if (chunk.NumRows() == 0) break;
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
    if (options.ood_policy == OodPolicy::kRefit) {
      if (running == nullptr) {
        running =
            std::make_unique<IncrementalSummary>(chunk.NumAttributes());
      }
      running->Absorb(chunk);
      const std::vector<size_t> ood = CountOod(chunk, compiled, options.exec);
      if (std::any_of(ood.begin(), ood.end(), [](size_t n) { return n > 0; })) {
        // Count the chunk's out-of-domain hits against the *old* plan,
        // then refit deterministically from everything seen so far (the
        // absorbed summary includes this chunk, so the new hull covers it).
        if (stats != nullptr) {
          for (size_t attr = 0; attr < ood.size(); ++attr) {
            stats->ood_total += ood[attr];
            stats->ood_by_attribute[attr] += ood[attr];
          }
        }
        const auto fit_start = Clock::now();
        Rng rng(options.seed);
        plan = TransformPlan::CreateFromSummaries(
            running->SummarizeAll(), options.transform, rng, options.exec);
        compiled = CompiledPlan::Compile(plan);
        if (stats != nullptr) {
          stats->refits++;
          stats->fit_seconds += SecondsSince(fit_start);
        }
      }
    }
    if (chunk_index < completed) {
      // An interrupted run already persisted (and checksummed) this chunk.
      // It was still read — and, under kRefit, absorbed — above, so the
      // plan evolves exactly as in the uninterrupted run; only the encode
      // and the append are skipped.
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
  oss << "chunk_rows=" << options.chunk_rows << " ood="
      << ToString(options.ood_policy) << " fit_rows=" << options.fit_rows
      << " seed=" << options.seed << " plan_crc="
      << Crc64Hex(Crc64(SerializePlan(plan)));
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
  oss << "out-of-domain values: " << ood_total << ", plan refits: " << refits
      << "\n";
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

Result<TransformPlan> StreamingCustodian::Release(ChunkReader& reader,
                                                  ChunkWriter& writer,
                                                  const StreamOptions& options,
                                                  StreamStats* stats) {
  POPP_CHECK_MSG(options.chunk_rows > 0, "chunk_rows must be >= 1");
  if (stats != nullptr) {
    *stats = StreamStats{};
  }
  // Pass 1: fold chunks into the incremental summary — the whole stream by
  // default, or just the first fit_rows rows in prefix mode.
  const auto summarize_start = Clock::now();
  std::unique_ptr<IncrementalSummary> summary;
  size_t absorbed = 0;
  for (;;) {
    size_t want = options.chunk_rows;
    if (options.fit_rows > 0) {
      if (absorbed >= options.fit_rows) break;
      want = std::min(want, options.fit_rows - absorbed);
    }
    Result<Dataset> next = reader.NextChunk(want);
    if (!next.ok()) return next.status();
    const Dataset& chunk = next.value();
    if (chunk.NumRows() == 0) break;
    if (summary == nullptr) {
      summary = std::make_unique<IncrementalSummary>(chunk.NumAttributes());
    }
    summary->Absorb(chunk);
    absorbed += chunk.NumRows();
    if (stats != nullptr) {
      stats->peak_resident_rows =
          std::max(stats->peak_resident_rows, chunk.NumRows());
    }
  }
  if (summary == nullptr || summary->empty()) {
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
