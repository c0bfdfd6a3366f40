#include "shard/pipeline.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "fault/file.h"
#include "parallel/parallel_for.h"
#include "resil/heartbeat.h"
#include "resil/supervisor.h"
#include "shard/summary_io.h"
#include "stream/manifest.h"
#include "stream/streaming_custodian.h"
#include "transform/serialize.h"
#include "util/crc64.h"
#include "util/rng.h"

namespace popp::shard {
namespace {

using Clock = std::chrono::steady_clock;
using stream::IncrementalSummary;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The per-shard journal salt: a journal written under a different shard
/// layout (index, range or shard count) must never be resumable, even
/// though every shard of one release shares the same base fingerprint.
std::string ShardSalt(size_t index, size_t num_shards,
                      const ShardRange& range) {
  std::ostringstream oss;
  oss << "shard=" << index << "/" << num_shards << " range=" << range.begin
      << "-";
  if (range.open()) {
    oss << "open";
  } else {
    oss << range.end;
  }
  oss << " ";
  return oss.str();
}

/// Stream options each worker drives its StreamingCustodian pass with.
/// `exec` is the *worker-internal* policy: the single worker of a 1-shard
/// release keeps the whole thread budget (the exact single-process path);
/// otherwise shards are the unit of parallelism and workers run serial
/// inside.
stream::StreamOptions WorkerStreamOptions(const ShardOptions& options,
                                          const ExecPolicy& exec) {
  stream::StreamOptions so;
  so.chunk_rows = options.chunk_rows;
  so.ood_policy = stream::OodPolicy::kReject;
  so.transform = options.transform;
  so.seed = options.seed;
  so.exec = exec;
  return so;
}

/// ChunkReader decorator that emits one heartbeat per pull, so a
/// supervised worker proves forward progress at chunk granularity without
/// the stream layer knowing about supervision. A null `hb` (thread
/// workers) makes it a plain pass-through.
class BeatingChunkReader : public stream::ChunkReader {
 public:
  BeatingChunkReader(stream::ChunkReader* inner, resil::HeartbeatWriter* hb)
      : inner_(inner), hb_(hb) {}

  Result<Dataset> NextChunk(size_t max_rows) override {
    if (hb_ != nullptr) hb_->Beat();
    return inner_->NextChunk(max_rows);
  }
  Status Rewind() override { return inner_->Rewind(); }
  Result<size_t> SkipRows(size_t rows) override {
    if (hb_ != nullptr) hb_->Beat();
    return inner_->SkipRows(rows);
  }

 private:
  stream::ChunkReader* inner_;
  resil::HeartbeatWriter* hb_;
};

/// Phase 1 worker: summarize the rows of one shard range. Also records
/// the shard-local class dictionary (the last chunk's schema carries every
/// class the worker has seen, in append-only first-appearance order).
Status SummarizeShard(const std::string& input_path,
                      stream::DatasetFormat format, const CsvOptions& csv,
                      size_t chunk_rows, ShardSummary* out,
                      resil::HeartbeatWriter* hb) {
  auto inner = stream::MakeChunkReader(input_path, format, csv);
  if (!inner.ok()) return inner.status();
  RangeChunkReader range(std::move(inner).value(), out->range);
  BeatingChunkReader reader(&range, hb);
  return stream::SummarizeChunks(reader, chunk_rows, out->range.begin,
                                 &out->summary, &out->class_names);
}

/// Phase 2 worker: encode the rows of one shard range with the fitted
/// plan into the shard's own journaled, resumable output file. Shard 0
/// writes the CSV header, so concatenating the shard files reproduces the
/// single-process release byte for byte.
Status EncodeShard(const std::string& input_path, const std::string& out_path,
                   stream::DatasetFormat format, const ShardOptions& options,
                   const ExecPolicy& exec, const TransformPlan& plan,
                   size_t index, const ShardRange& range,
                   stream::StreamStats* stats, size_t attempt,
                   resil::HeartbeatWriter* hb) {
  auto inner = stream::MakeChunkReader(input_path, format, options.csv);
  if (!inner.ok()) return inner.status();
  RangeChunkReader reader(std::move(inner).value(), range);
  BeatingChunkReader beating(&reader, hb);
  CsvOptions out_csv;
  out_csv.has_header = index == 0;
  stream::ResumeSinkOptions sink;
  // A restarted worker (attempt > 0) always resumes: the failed attempt's
  // journal records exactly which chunks are durable, so the restart only
  // re-encodes what is missing.
  sink.resume = options.resume || attempt > 0;
  // The journal outlives Close: a crash between this shard's rename and
  // the meta-manifest commit must still resume by verification. The
  // coordinator retires the journals once the meta-manifest is durable.
  sink.keep_manifest_on_close = true;
  sink.fingerprint_salt = ShardSalt(index, options.num_shards, range);
  stream::ResumableCsvChunkWriter writer(ShardFilePath(out_path, index),
                                         out_csv, sink);
  auto released = stream::StreamingCustodian::ReleaseWithPlan(
      beating, writer, plan, WorkerStreamOptions(options, exec), stats);
  return released.status();
}

/// Maps a worker's Status onto a process exit code (the CLI taxonomy) and
/// back — a forked worker's only channel to the coordinator.
int WorkerExitCode(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return 0;
    case StatusCode::kInvalidArgument:
      return 2;
    case StatusCode::kNotFound:
    case StatusCode::kIoError:
      return 3;
    case StatusCode::kDataLoss:
      return 4;
    case StatusCode::kUnavailable:
      return 6;
    default:
      return 1;
  }
}

Status WorkerExitStatus(size_t index, int code) {
  const std::string who = "shard " + std::to_string(index) + " worker";
  switch (code) {
    case 0:
      return Status::Ok();
    case 2:
      return Status::InvalidArgument(who + " failed (invalid input)");
    case 3:
      return Status::IoError(who + " failed (I/O error)");
    case 4:
      return Status::DataLoss(who + " failed (corrupt or torn artifact)");
    case 6:
      return Status::Unavailable(who +
                                 " failed (deadline exceeded or overloaded)");
    default:
      return Status::Internal(who + " exited with code " +
                              std::to_string(code));
  }
}

/// One phase of one shard's work. `attempt` counts failed earlier attempts
/// (a restarted encode resumes its journal); `hb` is the heartbeat
/// channel, null when nothing watches the worker.
using ShardBody = std::function<Status(size_t shard, size_t attempt,
                                       resil::HeartbeatWriter* hb)>;

/// The one worker runner: runs `body` for every shard and returns the
/// first failure in shard order.
///
/// Thread mode runs the shards as ThreadPool tasks with attempt 0 and no
/// heartbeat; their own inner ParallelFor calls then execute inline, since
/// shards are the parallelism. A single shard runs inline on the calling
/// thread with the full thread budget.
///
/// Process mode forks one child per shard under the resil watchdog. Each
/// child appends heartbeats to `<out>.shard<k>.hb`; a child silent past
/// `worker_deadline_ms` is killed, and any failed attempt (crash, non-zero
/// exit, watchdog kill) is restarted with deterministic backoff, except
/// one that rejected its input (exit 2), which fails the release at once.
/// After `max_worker_restarts` the shard is quarantined and the release
/// fails with the shard's full failure history. A child's Status travels
/// back as its exit code.
Status RunShardWorkers(const ShardOptions& options,
                       const std::string& out_path, const char* phase,
                       const ShardBody& body, ShardStats* stats) {
  if (options.workers_mode == WorkersMode::kThread) {
    std::vector<Status> statuses(options.num_shards);
    const size_t threads =
        std::min(options.exec.ResolvedThreads(), options.num_shards);
    ParallelFor(ExecPolicy{threads}, options.num_shards,
                [&](size_t k) { statuses[k] = body(k, 0, nullptr); });
    for (const Status& status : statuses) {
      POPP_RETURN_IF_ERROR(status);
    }
    return Status::Ok();
  }
  std::vector<resil::WorkerTask> tasks(options.num_shards);
  for (size_t k = 0; k < options.num_shards; ++k) {
    tasks[k].name =
        "shard " + std::to_string(k) + " " + phase + " worker";
    tasks[k].heartbeat_path = ShardFilePath(out_path, k) + ".hb";
    const std::string hb_path = tasks[k].heartbeat_path;
    tasks[k].run = [&body, k, hb_path](size_t attempt) {
      resil::HeartbeatWriter hb(hb_path);
      hb.Beat();
      const Status status = body(k, attempt, &hb);
      if (!status.ok()) {
        std::fprintf(stderr, "shard %zu worker (attempt %zu): %s\n", k,
                     attempt, status.ToString().c_str());
        std::fflush(stderr);
      }
      return WorkerExitCode(status);
    };
  }
  resil::SupervisorOptions sup;
  sup.worker_deadline_ms = options.worker_deadline_ms;
  sup.max_restarts = options.max_worker_restarts;
  sup.seed = options.seed;
  resil::SupervisionReport report;
  const Status status = resil::RunSupervised(
      sup, tasks,
      [&tasks](const resil::WorkerTask& task, int code) {
        const size_t k = static_cast<size_t>(&task - tasks.data());
        return WorkerExitStatus(k, code);
      },
      &report);
  if (stats != nullptr) {
    stats->workers_killed += report.workers_killed;
    stats->worker_restarts += report.worker_restarts;
  }
  return status;
}

size_t ShardRows(const ShardSummary& shard) {
  return shard.summary.has_value() ? shard.summary->NumRows() : 0;
}

/// Builds the global class dictionary (union of the shard dictionaries in
/// shard order, preserving each shard's local first-appearance order) and
/// remaps every shard summary into it. The union is the stream's order: a
/// class new to shard k first appears in the file inside shard k, so it
/// enters the union after every class of earlier shards and in the order
/// shard k met it. Returns the remapped summaries aligned with `shards`.
Result<std::vector<std::optional<IncrementalSummary>>> RemapToGlobalClasses(
    const std::vector<ShardSummary>& shards,
    std::vector<std::string>* global_names) {
  std::map<std::string, size_t> ids;
  global_names->clear();
  std::vector<std::optional<IncrementalSummary>> remapped(shards.size());
  for (size_t k = 0; k < shards.size(); ++k) {
    const ShardSummary& shard = shards[k];
    if (!shard.summary.has_value()) continue;
    if (shard.class_names.size() != shard.summary->NumClasses()) {
      return Status::Internal(
          "shard " + std::to_string(k) + " recorded " +
          std::to_string(shard.class_names.size()) +
          " class names for a summary with " +
          std::to_string(shard.summary->NumClasses()) + " classes");
    }
    std::vector<size_t> local_to_global;
    local_to_global.reserve(shard.class_names.size());
    for (const std::string& name : shard.class_names) {
      auto [it, inserted] = ids.emplace(name, global_names->size());
      if (inserted) global_names->push_back(name);
      local_to_global.push_back(it->second);
    }
    remapped[k] = SummaryCodec::RemapClasses(*shard.summary, local_to_global,
                                             ids.size());
  }
  // Earlier shards may have seen fewer classes than the finished union:
  // widen them so the merge is dimension-consistent.
  for (auto& summary : remapped) {
    if (summary.has_value() && summary->NumClasses() < ids.size()) {
      std::vector<size_t> identity(summary->NumClasses());
      for (size_t c = 0; c < identity.size(); ++c) identity[c] = c;
      summary = SummaryCodec::RemapClasses(*summary, identity, ids.size());
    }
  }
  return remapped;
}

/// Reduces the shard summaries pairwise in a fixed-shape binary tree:
/// level L pairs slots (2i, 2i+1), an odd tail carries over. The shape
/// depends only on the shard count — not thread scheduling — and
/// `IncrementalSummary::Merge` is associative and commutative, so any
/// shape yields the same state; the fixed shape keeps the reduction
/// parallel *and* reproducible to the operator reading logs.
std::optional<IncrementalSummary> MergeTree(
    std::vector<std::optional<IncrementalSummary>> level,
    const ExecPolicy& exec) {
  while (level.size() > 1) {
    const size_t pairs = level.size() / 2;
    std::vector<std::optional<IncrementalSummary>> next((level.size() + 1) /
                                                        2);
    ParallelFor(ExecPolicy{std::min(exec.ResolvedThreads(), pairs)}, pairs,
                [&](size_t i) {
                  std::optional<IncrementalSummary>& a = level[2 * i];
                  std::optional<IncrementalSummary>& b = level[2 * i + 1];
                  if (a.has_value() && b.has_value()) {
                    a->Merge(*b);
                    next[i] = std::move(a);
                  } else {
                    next[i] = a.has_value() ? std::move(a) : std::move(b);
                  }
                });
    if (level.size() % 2 != 0) {
      next.back() = std::move(level.back());
    }
    level = std::move(next);
  }
  return level.empty() ? std::nullopt : std::move(level[0]);
}

/// Streams one shard file for its byte length and CRC-64 (64 KiB
/// resident), producing the meta-manifest entry fields.
Status HashShardFile(const std::string& path, size_t* bytes, uint64_t* crc) {
  fault::InputFile in;
  POPP_RETURN_IF_ERROR(in.Open(path));
  Crc64Stream stream;
  char buffer[1 << 16];
  for (;;) {
    auto got = in.Read(buffer, sizeof(buffer));
    if (!got.ok()) return got.status();
    if (got.value() == 0) break;
    stream.Update(std::string_view(buffer, got.value()));
  }
  *bytes = stream.bytes_fed();
  *crc = stream.value();
  return Status::Ok();
}

}  // namespace

Result<WorkersMode> ParseWorkersMode(std::string_view name) {
  if (name == "thread") return WorkersMode::kThread;
  if (name == "process") return WorkersMode::kProcess;
  return Status::InvalidArgument("unknown workers mode '" +
                                 std::string(name) +
                                 "' (expected thread or process)");
}

namespace {

/// True iff `name` (a filename in the release directory) is an orphaned
/// *working* file of the `base` release stem: `base.shard<digits>` plus a
/// non-empty chain of working suffixes, each drawn from {sum, manifest,
/// partial, tmp, hb} — which covers direct working files and their
/// atomic-writer temporaries (e.g. `base.shard3.sum.tmp`) but can never
/// match a live payload shard (`base.shard3`, no suffix) or the published
/// meta-manifest (`base`, no ".shard").
bool IsOrphanedWorkingFile(const std::string& name, const std::string& base) {
  const std::string prefix = base + ".shard";
  if (name.rfind(prefix, 0) != 0) return false;
  size_t i = prefix.size();
  size_t digits = 0;
  while (i < name.size() && name[i] >= '0' && name[i] <= '9') {
    ++i;
    ++digits;
  }
  if (digits == 0 || i >= name.size()) return false;
  size_t suffixes = 0;
  while (i < name.size()) {
    if (name[i] != '.') return false;
    const size_t dot = i;
    i = name.find('.', dot + 1);
    if (i == std::string::npos) i = name.size();
    const std::string token = name.substr(dot + 1, i - dot - 1);
    if (token != "sum" && token != "manifest" && token != "partial" &&
        token != "tmp" && token != "hb") {
      return false;
    }
    ++suffixes;
  }
  return suffixes > 0;
}

}  // namespace

Result<size_t> SweepOrphanedShardFiles(const std::string& out_path) {
  namespace fs = std::filesystem;
  const fs::path out(out_path);
  fs::path dir = out.parent_path();
  if (dir.empty()) dir = ".";
  const std::string base = out.filename().string();
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) return size_t{0};
  // Collect first, then remove: removal goes through the fault layer (so
  // crash/error schedules see it) and must not perturb the iteration.
  std::vector<std::string> doomed;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (ec) break;
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (IsOrphanedWorkingFile(name, base) || name == base + ".tmp") {
      doomed.push_back(entry.path().string());
    }
  }
  std::sort(doomed.begin(), doomed.end());  // deterministic sweep order
  for (const std::string& path : doomed) {
    POPP_RETURN_IF_ERROR(fault::RemoveFile(path));
  }
  return doomed.size();
}

std::string ShardStats::Render() const {
  std::ostringstream oss;
  oss << "sharded release: " << rows << " rows across " << shards
      << " shard" << (shards == 1 ? "" : "s");
  if (empty_shards > 0) {
    oss << " (" << empty_shards << " empty)";
  }
  oss << ", " << released_bytes << " bytes (peak resident rows: "
      << peak_resident_rows << ")\n";
  if (resumed_chunks > 0) {
    oss << "resumed: " << resumed_chunks
        << " chunks reused from interrupted shard runs\n";
  }
  if (swept_files > 0) {
    oss << "swept: " << swept_files
        << " orphaned working files from a prior crashed run\n";
  }
  if (workers_killed > 0 || worker_restarts > 0) {
    oss << "supervision: " << workers_killed
        << " hung workers killed by the watchdog, " << worker_restarts
        << " worker restarts\n";
  }
  oss.precision(3);
  oss << std::fixed << "timings: count " << count_seconds << "s, summarize "
      << summarize_seconds << "s, merge+fit " << merge_fit_seconds
      << "s, encode " << encode_seconds << "s, finalize " << finalize_seconds
      << "s\n";
  return oss.str();
}

Result<TransformPlan> ShardedCustodian::Release(const std::string& input_path,
                                                const std::string& out_path,
                                                const ShardOptions& options,
                                                ShardStats* stats) {
  POPP_CHECK_MSG(options.num_shards > 0, "need at least one shard");
  POPP_CHECK_MSG(options.chunk_rows > 0, "chunk_rows must be >= 1");
  if (stats != nullptr) {
    *stats = ShardStats{};
    stats->shards = options.num_shards;
  }
  auto format = stream::SniffDatasetFormat(input_path, options.format);
  if (!format.ok()) return format.status();

  // Fresh runs sweep orphaned working files of this release stem before
  // doing anything else; --resume must NOT (the journals are the resume
  // state).
  if (!options.resume) {
    auto swept = SweepOrphanedShardFiles(out_path);
    if (!swept.ok()) return swept.status();
    if (stats != nullptr) stats->swept_files = swept.value();
  }

  // Plan the shard layout. One shard takes an open range — the exact
  // single-process read path, with no counting pass at all.
  const auto count_start = Clock::now();
  std::vector<ShardRange> ranges;
  if (options.num_shards == 1) {
    ranges.push_back(ShardRange{0, kOpenEnd});
  } else {
    auto total = CountRows(input_path, format.value(), options.csv);
    if (!total.ok()) return total.status();
    ranges = SplitRows(total.value(), options.num_shards);
  }
  if (stats != nullptr) {
    stats->count_seconds = SecondsSince(count_start);
    for (const ShardRange& range : ranges) {
      if (range.empty()) stats->empty_shards++;
    }
  }

  // Phase 1: summarize every shard in parallel. Empty ranges have nothing
  // to read. A forked worker hands its summary back as a `.sum` artifact.
  const bool forked = options.workers_mode == WorkersMode::kProcess;
  const auto summarize_start = Clock::now();
  std::vector<ShardSummary> summaries(options.num_shards);
  for (size_t k = 0; k < options.num_shards; ++k) {
    summaries[k].shard_index = k;
    summaries[k].num_shards = options.num_shards;
    summaries[k].range = ranges[k];
  }
  POPP_RETURN_IF_ERROR(RunShardWorkers(
      options, out_path, "summarize",
      [&](size_t k, size_t /*attempt*/, resil::HeartbeatWriter* hb) {
        // Summarize is stateless; a restarted attempt reruns it whole.
        if (summaries[k].range.empty()) return Status::Ok();
        POPP_RETURN_IF_ERROR(SummarizeShard(input_path, format.value(),
                                            options.csv, options.chunk_rows,
                                            &summaries[k], hb));
        if (!forked) return Status::Ok();
        return SummaryCodec::Save(summaries[k],
                                  ShardSummaryPath(out_path, k));
      },
      stats));
  if (forked) {
    for (size_t k = 0; k < options.num_shards; ++k) {
      if (summaries[k].range.empty()) continue;
      auto loaded = SummaryCodec::Load(ShardSummaryPath(out_path, k));
      if (!loaded.ok()) return loaded.status();
      summaries[k] = std::move(loaded).value();
      POPP_RETURN_IF_ERROR(fault::RemoveFile(ShardSummaryPath(out_path, k)));
    }
  }
  if (stats != nullptr) {
    stats->summarize_seconds = SecondsSince(summarize_start);
  }

  // Barrier. Merge the shard summaries and fit the single global plan.
  const auto merge_start = Clock::now();
  size_t num_attributes = 0;
  for (const ShardSummary& shard : summaries) {
    if (!shard.summary.has_value()) continue;
    if (num_attributes == 0) {
      num_attributes = shard.summary->NumAttributes();
    } else if (shard.summary->NumAttributes() != num_attributes) {
      return Status::InvalidArgument(
          "shard-release: shard " + std::to_string(shard.shard_index) +
          " saw " + std::to_string(shard.summary->NumAttributes()) +
          " attributes but earlier shards saw " +
          std::to_string(num_attributes));
    }
  }
  if (num_attributes == 0) {
    return Status::InvalidArgument(
        "shard-release: the input stream has no data rows to fit on");
  }
  std::vector<std::string> global_names;
  auto remapped = RemapToGlobalClasses(summaries, &global_names);
  if (!remapped.ok()) return remapped.status();
  std::optional<IncrementalSummary> merged =
      MergeTree(std::move(remapped).value(), options.exec);
  if (!merged.has_value() || merged->empty()) {
    return Status::InvalidArgument(
        "shard-release: the input stream has no data rows to fit on");
  }
  const size_t total_rows = merged->NumRows();
  Rng rng(options.seed);
  const TransformPlan plan = TransformPlan::CreateFromSummaries(
      merged->SummarizeAll(), options.transform, rng, options.exec);
  merged.reset();
  if (stats != nullptr) {
    stats->merge_fit_seconds = SecondsSince(merge_start);
    stats->rows = total_rows;
  }

  // Phase 2: encode every shard in parallel, each behind its own journal.
  const auto encode_start = Clock::now();
  const ExecPolicy worker_exec =
      options.num_shards == 1 ? options.exec : ExecPolicy::Serial();
  std::vector<stream::StreamStats> shard_stats(options.num_shards);
  POPP_RETURN_IF_ERROR(RunShardWorkers(
      options, out_path, "encode",
      [&](size_t k, size_t attempt, resil::HeartbeatWriter* hb) {
        return EncodeShard(input_path, out_path, format.value(), options,
                           worker_exec, plan, k, ranges[k], &shard_stats[k],
                           attempt, hb);
      },
      stats));
  if (stats != nullptr) {
    stats->encode_seconds = SecondsSince(encode_start);
    for (size_t k = 0; k < options.num_shards; ++k) {
      size_t peak = shard_stats[k].peak_resident_rows;
      if (forked) {
        // A forked worker's StreamStats stay in the child. Its peak is
        // fixed by the layout, and it reports no resumed chunks.
        peak = std::min(options.chunk_rows, ShardRows(summaries[k]));
      }
      stats->resumed_chunks += shard_stats[k].resumed_chunks;
      stats->peak_resident_rows = std::max(stats->peak_resident_rows, peak);
    }
  }

  // Finalize: bind the shards into one atomic, integrity-checked release.
  const auto finalize_start = Clock::now();
  MetaManifest meta;
  meta.fingerprint =
      stream::StreamFingerprint(plan, WorkerStreamOptions(options, options.exec));
  meta.plan_crc = Crc64(SerializePlan(plan));
  // The shard files are hashed on up to one thread each; the entries, and
  // the first failure, are taken in shard order.
  meta.shards.resize(options.num_shards);
  std::vector<Status> hashed(options.num_shards);
  ParallelFor(options.exec, options.num_shards, [&](size_t k) {
    ShardEntry& entry = meta.shards[k];
    entry.index = k;
    entry.rows = ShardRows(summaries[k]);
    entry.file = ShardFilePath(out_path, k);
    hashed[k] = HashShardFile(entry.file, &entry.bytes, &entry.crc);
  });
  for (size_t k = 0; k < options.num_shards; ++k) {
    POPP_RETURN_IF_ERROR(hashed[k]);
    if (stats != nullptr) stats->released_bytes += meta.shards[k].bytes;
  }
  POPP_RETURN_IF_ERROR(SaveMetaManifest(meta, out_path));
  // Only now that the release is durable do the shard journals retire; a
  // crash anywhere earlier resumes shard by shard from the journals.
  for (size_t k = 0; k < options.num_shards; ++k) {
    POPP_RETURN_IF_ERROR(
        fault::RemoveFile(ShardFilePath(out_path, k) + ".manifest"));
  }
  if (stats != nullptr) {
    stats->finalize_seconds = SecondsSince(finalize_start);
  }
  return plan;
}

}  // namespace popp::shard
