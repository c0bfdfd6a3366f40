// The two release workloads.
//
//   stream_csv  CsvChunkReader -> StreamingCustodian::Release ->
//               ResumableCsvChunkWriter, one process, one thread (what
//               `popp stream-release` does), for four tenants at once: four
//               such releases run side by side, one per core, each on its
//               own input.
//   shard_csv   ShardedCustodian::Release, 4 shards, thread workers,
//               4 threads (what `popp shard-release --shards 4 --threads 4`
//               does), one release at a time.
//
// Both keep all four cores busy. On a shared host the speed of one core
// for this branchy text work swings by 20% within a minute, largely
// independently per core; a run that spreads its samples over four cores
// reports a median that holds still, while single-core runs did not.
//
// The parent generates the input CSVs from the seed, computes the batch
// reference of each (TransformPlan::Create + TransformPlan::EncodeDataset +
// ToCsvString), then runs rounds of releases in re-executed children of
// this binary until the measuring time is used up. Each child reports its
// own peak RSS, which excludes the generator. After each release the
// parent compares the plan document and every output byte with the
// reference.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "data/csv.h"
#include "fault/file.h"
#include "shard/meta_manifest.h"
#include "shard/pipeline.h"
#include "shard/planner.h"
#include "stream/chunk_io.h"
#include "stream/incremental_summary.h"
#include "stream/manifest.h"
#include "stream/streaming_custodian.h"
#include "synth/covtype_like.h"
#include "trace.h"
#include "transform/compiled.h"
#include "transform/plan.h"
#include "transform/serialize.h"
#include "util/crc64.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr size_t kShards = 4;
constexpr size_t kShardThreads = 4;
constexpr size_t kStreamTenants = 4;
constexpr size_t kCores = 4;

/// 200k rows, not the 1M of the reference release: one release then takes
/// about 2 s, so a run holds about ten rounds and reports medians, where
/// 1M-row releases of about 9 s would give two. (DefaultCovtypeSpec needs
/// ~20k rows to meet its distinct-value targets, hence the tiny size.)
size_t InputRows(const RunConfig& config) {
  return config.tiny ? 20000 : 200000;
}

std::string InputPath(size_t tenant) {
  return "input-" + std::to_string(tenant) + ".csv";
}
std::string OutputPath(size_t tenant) {
  return "release-" + std::to_string(tenant) + ".csv";
}

// ---------------------------------------------------------------------------
// Traced wrappers (stream_csv). They bracket every call the release makes
// into the reader and the writer, and split Append by replaying the
// writer's own layer functions (ToCsvString, Crc64) on the same chunk.

struct StreamTrace {
  Tracer tracer;
  int64_t release = -1;  ///< root span
  int64_t pass = -1;     ///< the open pass span (summarize, then encode)
  int64_t summarize = -1;  ///< pass 1
  int64_t encode = -1;     ///< pass 2
  double rewind_start = 0;
  bool first_chunk = true;
};

class TracedReader : public popp::stream::ChunkReader {
 public:
  TracedReader(popp::stream::ChunkReader& inner, StreamTrace& trace)
      : inner_(inner), trace_(trace) {}

  popp::Result<popp::Dataset> NextChunk(size_t max_rows) override {
    Tracer& t = trace_.tracer;
    if (trace_.pass < 0) {
      trace_.pass = trace_.summarize = t.Begin("stream.summarize", trace_.release);
    }
    const int64_t id = t.Begin("data.csv_parse", trace_.pass);
    auto chunk = inner_.NextChunk(max_rows);
    t.End(id);
    return chunk;
  }

  popp::Status Rewind() override {
    trace_.rewind_start = Now();
    trace_.tracer.End(trace_.pass);
    trace_.pass = -1;
    return inner_.Rewind();
  }

 private:
  popp::stream::ChunkReader& inner_;
  StreamTrace& trace_;
};

class TracedWriter : public popp::stream::ChunkWriter {
 public:
  TracedWriter(popp::stream::ChunkWriter& inner, StreamTrace& trace)
      : inner_(inner), trace_(trace) {}

  popp::Status BeginStream(const std::string& fingerprint) override {
    Tracer& t = trace_.tracer;
    // The encode pass: its self time is the compiled kernel and the
    // per-chunk bookkeeping of EncodeChunk.
    trace_.pass = trace_.encode = t.Begin("transform.kernel", trace_.release);
    const int64_t id = t.Begin("stream.journal", trace_.pass);
    const popp::Status status = inner_.BeginStream(fingerprint);
    t.End(id);
    return status;
  }
  size_t CompletedChunks() const override { return inner_.CompletedChunks(); }
  popp::Status NoteSkipped(size_t chunk_index, size_t rows) override {
    return inner_.NoteSkipped(chunk_index, rows);
  }

  popp::Status Append(const popp::Dataset& chunk) override {
    Tracer& t = trace_.tracer;
    const int64_t id = t.Begin("fault.write", trace_.pass);
    const popp::Status status = inner_.Append(chunk);
    t.End(id);
    // Replay the layer calls Append makes on this chunk, to split it.
    popp::CsvOptions options;
    options.has_header = trace_.first_chunk;
    trace_.first_chunk = false;
    const double r0 = Now();
    const std::string bytes = popp::ToCsvString(chunk, options);
    const double r1 = Now();
    volatile uint64_t crc = popp::Crc64(bytes);
    (void)crc;
    const double r2 = Now();
    const double start = t.spans()[id].start;
    t.Add("data.csv_format", start, start + (r1 - r0), id);
    t.Add("util.crc64", start, start + (r2 - r1), id);
    t.Add("trace.replay", r0, r2, trace_.pass);
    return status;
  }

  popp::Status Close() override {
    Tracer& t = trace_.tracer;
    const int64_t id = t.Begin("fault.write", trace_.pass);
    const popp::Status status = inner_.Close();
    t.End(id);
    t.End(trace_.pass);
    return status;
  }

 private:
  popp::stream::ChunkWriter& inner_;
  StreamTrace& trace_;
};

// ---------------------------------------------------------------------------
// The release child: one release, its timings in a key/value file.

struct ChildArgs {
  std::string mode;
  std::string in;
  std::string out;
  uint64_t seed = 1;
  bool trace = false;
  std::string result;
  std::string spans;
  std::string ledger;
};

void AddLayer(KeyValues* kv, const Ledger& ledger, const std::string& span,
              const std::string& metric) {
  (*kv)[metric] += ledger.Get(span);
}

int StreamChild(const ChildArgs& args) {
  popp::stream::StreamOptions options;
  options.seed = args.seed;
  options.exec = popp::ExecPolicy{1};
  popp::stream::StreamStats stats;
  StreamTrace trace;

  const double cpu0 = ProcessCpuSeconds();
  const double t0 = Now();
  popp::stream::CsvChunkReader csv_reader(args.in);
  popp::stream::ResumableCsvChunkWriter csv_writer(args.out);
  TracedReader traced_reader(csv_reader, trace);
  TracedWriter traced_writer(csv_writer, trace);
  popp::stream::ChunkReader& reader =
      args.trace ? static_cast<popp::stream::ChunkReader&>(traced_reader)
                 : csv_reader;
  popp::stream::ChunkWriter& writer =
      args.trace ? static_cast<popp::stream::ChunkWriter&>(traced_writer)
                 : csv_writer;
  if (args.trace) trace.release = trace.tracer.Begin("release");
  auto plan = popp::stream::StreamingCustodian::Release(reader, writer,
                                                        options, &stats);
  const double wall = Now() - t0;
  const double cpu = ProcessCpuSeconds() - cpu0;
  if (!plan.ok()) {
    std::fprintf(stderr, "stream release failed: %s\n",
                 plan.status().ToString().c_str());
    return 1;
  }
  KeyValues kv = {{"wall_s", wall},
                  {"rows", static_cast<double>(stats.rows)},
                  {"peak_rss_mb", PeakRssMb("self")},
                  {"parallel.cpu_util", cpu / wall}};
  if (args.trace) {
    Tracer& t = trace.tracer;
    t.End(trace.release);
    // Stages inside Release come from StreamStats: the fit runs between
    // the last pass-1 chunk and the rewind.
    t.Add("transform.fit", trace.rewind_start - stats.fit_seconds,
          trace.rewind_start, trace.summarize);
    // The compile inside the encode pass is replayed on the fitted plan.
    const double c0 = Now();
    (void)popp::CompiledPlan::Compile(plan.value());
    const double at = t.spans()[trace.encode].start;
    t.Add("transform.compile", at, at + (Now() - c0), trace.encode);

    const Ledger ledger = MakeLedger(t, "release", "stream_csv (1 release)");
    AddLayer(&kv, ledger, "data.csv_parse", "data.csv_parse_s");
    AddLayer(&kv, ledger, "data.csv_format", "data.csv_format_s");
    AddLayer(&kv, ledger, "stream.summarize", "stream.summarize_s");
    AddLayer(&kv, ledger, "stream.journal", "stream.journal_s");
    AddLayer(&kv, ledger, "transform.fit", "transform.fit_s");
    AddLayer(&kv, ledger, "transform.compile", "transform.compile_s");
    AddLayer(&kv, ledger, "transform.kernel", "transform.kernel_s");
    AddLayer(&kv, ledger, "fault.write", "fault.write_s");
    AddLayer(&kv, ledger, "util.crc64", "util.crc64_s");
    AddLayer(&kv, ledger, "trace.replay", "trace.replay_s");
    kv["ledger.unattributed_frac"] = ledger.Get("unattributed") / ledger.wall;
    t.WriteJsonl(args.spans);
    std::ofstream(args.ledger) << ledger.Render("s", 1.0);
  }
  std::ofstream(args.out + ".key") << popp::SerializePlan(plan.value());
  return WriteKeyValues(args.result, kv) ? 0 : 1;
}

/// Replays one full single-threaded pass of the layer functions a shard
/// worker calls (parse, absorb, kernel, format, CRC) on the input, to split
/// the shard stages into layers.
void ReplayLayers(const std::string& in, const popp::TransformPlan& plan,
                  KeyValues* kv) {
  popp::stream::CsvChunkReader reader(in);
  const popp::CompiledPlan compiled = popp::CompiledPlan::Compile(plan);
  std::unique_ptr<popp::stream::IncrementalSummary> summary;
  bool first = true;
  for (;;) {
    double t = Now();
    auto next = reader.NextChunk(4096);
    (*kv)["data.csv_parse_s"] += Now() - t;
    if (!next.ok() || next.value().NumRows() == 0) break;
    const popp::Dataset& chunk = next.value();
    if (summary == nullptr) {
      summary = std::make_unique<popp::stream::IncrementalSummary>(
          chunk.NumAttributes());
    }
    t = Now();
    summary->Absorb(chunk);
    (*kv)["stream.summarize_s"] += Now() - t;
    t = Now();
    const popp::Dataset encoded = compiled.EncodeDataset(chunk);
    (*kv)["transform.kernel_s"] += Now() - t;
    popp::CsvOptions options;
    options.has_header = first;
    first = false;
    t = Now();
    const std::string bytes = popp::ToCsvString(encoded, options);
    (*kv)["data.csv_format_s"] += Now() - t;
    t = Now();
    volatile uint64_t crc = popp::Crc64(bytes);
    (void)crc;
    (*kv)["util.crc64_s"] += Now() - t;
  }
}

int ShardChild(const ChildArgs& args) {
  popp::shard::ShardOptions options;
  options.num_shards = kShards;
  options.workers_mode = popp::shard::WorkersMode::kThread;
  options.exec = popp::ExecPolicy{kShardThreads};
  options.seed = args.seed;
  popp::shard::ShardStats stats;

  const double cpu0 = ProcessCpuSeconds();
  const double t0 = Now();
  auto plan = popp::shard::ShardedCustodian::Release(args.in, args.out,
                                                     options, &stats);
  const double t1 = Now();
  const double wall = t1 - t0;
  const double cpu = ProcessCpuSeconds() - cpu0;
  if (!plan.ok()) {
    std::fprintf(stderr, "shard release failed: %s\n",
                 plan.status().ToString().c_str());
    return 1;
  }
  KeyValues kv = {{"wall_s", wall},
                  {"rows", static_cast<double>(stats.rows)},
                  {"peak_rss_mb", PeakRssMb("self")},
                  {"parallel.cpu_util", cpu / (wall * kShardThreads)}};
  if (args.trace) {
    // The stages inside Release come from ShardStats, laid end to end in
    // pipeline order under the release span.
    Tracer t;
    const int64_t root = t.Add("release", t0, t1);
    double at = t0;
    const std::pair<const char*, double> stages[] = {
        {"shard.count", stats.count_seconds},
        {"shard.summarize", stats.summarize_seconds},
        {"shard.merge_fit", stats.merge_fit_seconds},
        {"shard.encode", stats.encode_seconds},
        {"shard.finalize", stats.finalize_seconds}};
    for (const auto& [name, seconds] : stages) {
      t.Add(name, at, at + seconds, root);
      at += seconds;
    }
    const Ledger ledger = MakeLedger(t, "release", "shard_csv (1 release)");
    for (const auto& [name, seconds] : stages) {
      kv[std::string(name) + "_s"] = seconds;
    }
    kv["ledger.unattributed_frac"] = ledger.Get("unattributed") / ledger.wall;

    // Layer calls replayed after the release, outside its wall time:
    // SkipRows to each shard's SplitRows start, then one full pass.
    const auto rows = popp::shard::CountRows(args.in);
    const auto ranges = popp::shard::SplitRows(rows.ok() ? rows.value() : 0,
                                               kShards);
    const int64_t replay = t.Begin("trace.replay");
    for (const popp::shard::ShardRange& range : ranges) {
      popp::stream::CsvChunkReader reader(args.in);
      const int64_t id = t.Begin("shard.skip", replay);
      (void)reader.SkipRows(range.begin);
      t.End(id);
      kv["shard.skip_s"] += t.Duration(id);
    }
    ReplayLayers(args.in, plan.value(), &kv);
    t.End(replay);
    t.WriteJsonl(args.spans);
    std::ofstream(args.ledger)
        << ledger.Render("s", 1.0)
        << "  replayed after the release, one thread, one pass: parse "
        << Num(kv["data.csv_parse_s"]) << " s, summarize "
        << Num(kv["stream.summarize_s"]) << " s, kernel "
        << Num(kv["transform.kernel_s"]) << " s, format "
        << Num(kv["data.csv_format_s"]) << " s, crc "
        << Num(kv["util.crc64_s"]) << " s, skip to shard starts "
        << Num(kv["shard.skip_s"]) << " s\n";
  }
  std::ofstream(args.out + ".key") << popp::SerializePlan(plan.value());
  return WriteKeyValues(args.result, kv) ? 0 : 1;
}

// ---------------------------------------------------------------------------
// The parent.

/// One tenant's input and the batch release it must reproduce byte for
/// byte.
struct Tenant {
  uint64_t seed = 0;
  popp::Dataset data;
  std::string plan_document;
  std::string csv;
};

/// Writes `data` as WriteCsv would, formatting four row slices on four
/// threads (a header on the first only: the concatenation is WriteCsv's
/// bytes, the property the chunked writers rely on).
popp::Status WriteInput(const popp::Dataset& data, const std::string& path) {
  popp::stream::DatasetChunkReader reader(&data);
  const size_t slice = (data.NumRows() + kCores - 1) / kCores;
  std::vector<popp::Dataset> slices;
  for (auto next = reader.NextChunk(slice);
       next.ok() && next.value().NumRows() > 0; next = reader.NextChunk(slice)) {
    slices.push_back(std::move(next).value());
  }
  std::vector<std::string> parts(slices.size());
  std::vector<std::thread> threads;
  for (size_t k = 0; k < slices.size(); ++k) {
    threads.emplace_back([&, k] {
      popp::CsvOptions options;
      options.has_header = k == 0;
      parts[k] = popp::ToCsvString(slices[k], options);
    });
  }
  for (std::thread& t : threads) t.join();
  std::string all;
  for (const std::string& part : parts) all += part;
  return popp::fault::WriteFileAtomic(path, all);
}

void RemoveOutputs() {
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(".", ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("release-", 0) == 0) {
      std::filesystem::remove(entry.path(), ec);
    }
  }
}

/// Released bytes of one finished release: the stream output, or the
/// shard files concatenated in shard order.
std::string ReleasedBytes(const std::string& out, bool sharded) {
  std::string all;
  if (!sharded) {
    ReadFile(out, &all);
    return all;
  }
  for (size_t k = 0; k < kShards; ++k) {
    std::string part;
    ReadFile(popp::shard::ShardFilePath(out, k), &part);
    all += part;
  }
  return all;
}

struct ReleaseRun {
  bool ok = false;
  KeyValues kv;
};

/// One round: every tenant's release at once, each in its own child, with
/// tenant 0 traced when `trace` is set. Checks every output.
std::vector<ReleaseRun> RunRound(const RunConfig& config, bool sharded,
                                 bool trace, const std::vector<Tenant>& tenants,
                                 int round) {
  RemoveOutputs();
  std::vector<pid_t> pids;
  for (size_t k = 0; k < tenants.size(); ++k) {
    const std::string tag = std::to_string(round) + "-" + std::to_string(k);
    pids.push_back(Spawn({config.self_path, "release-child", "--mode",
                          sharded ? "shard" : "stream", "--in", InputPath(k),
                          "--out", OutputPath(k), "--seed",
                          std::to_string(tenants[k].seed), "--trace",
                          trace && k == 0 ? "1" : "0", "--result",
                          "child" + tag + ".kv", "--spans", "spans.jsonl",
                          "--ledger", "ledger.txt"},
                         "child" + tag + ".log"));
  }
  std::vector<ReleaseRun> runs(tenants.size());
  for (size_t k = 0; k < tenants.size(); ++k) {
    const std::string tag = std::to_string(round) + "-" + std::to_string(k);
    ReleaseRun& run = runs[k];
    if (pids[k] < 0) continue;
    const int exit_code = WaitChild(pids[k]);
    run.kv = ReadKeyValues("child" + tag + ".kv");
    if (exit_code != 0) {
      std::string log;
      ReadFile("child" + tag + ".log", &log);
      std::cerr << "release child failed (exit " << exit_code << "):\n"
                << log;
      continue;
    }
    std::string plan_document;
    ReadFile(OutputPath(k) + ".key", &plan_document);
    const bool plan_ok = plan_document == tenants[k].plan_document;
    const bool bytes_ok =
        ReleasedBytes(OutputPath(k), sharded) == tenants[k].csv;
    if (!plan_ok || !bytes_ok) {
      std::cerr << "CHECKSUM MISMATCH against the batch release: plan "
                << (plan_ok ? "ok" : "differs") << ", bytes "
                << (bytes_ok ? "ok" : "differ") << "\n";
    }
    run.ok = plan_ok && bytes_ok;
  }
  return runs;
}

}  // namespace

int ReleaseChildMain(const std::vector<std::string>& args) {
  ChildArgs parsed;
  for (size_t i = 0; i + 1 < args.size(); i += 2) {
    const std::string& key = args[i];
    const std::string& value = args[i + 1];
    if (key == "--mode") parsed.mode = value;
    else if (key == "--in") parsed.in = value;
    else if (key == "--out") parsed.out = value;
    else if (key == "--seed") parsed.seed = std::stoull(value);
    else if (key == "--trace") parsed.trace = value == "1";
    else if (key == "--result") parsed.result = value;
    else if (key == "--spans") parsed.spans = value;
    else if (key == "--ledger") parsed.ledger = value;
  }
  if (parsed.mode == "stream") return StreamChild(parsed);
  if (parsed.mode == "shard") return ShardChild(parsed);
  std::fprintf(stderr, "release-child: unknown --mode '%s'\n",
               parsed.mode.c_str());
  return 2;
}

int RunReleaseWorkload(const RunConfig& config, Outcome* outcome) {
  const bool sharded = config.workload == "shard_csv";
  const size_t rows = InputRows(config);
  std::vector<Tenant> tenants(sharded ? 1 : kStreamTenants);

  // Set-up: generate every tenant's data from the seed and write its input
  // CSV, five times; the median is setup_s.
  std::vector<double> setup_times;
  for (int i = 0; i < 5; ++i) {
    const double t0 = Now();
    for (size_t k = 0; k < tenants.size(); ++k) {
      tenants[k].seed = config.seed + k;
      popp::Rng rng(tenants[k].seed);
      tenants[k].data =
          popp::GenerateCovtypeLike(popp::DefaultCovtypeSpec(rows), rng);
      const popp::Status written = WriteInput(tenants[k].data, InputPath(k));
      if (!written.ok()) {
        std::cerr << "cannot write the input: " << written.ToString() << "\n";
        return 1;
      }
    }
    setup_times.push_back(Now() - t0);
  }
  std::cout << Samples("setup_s samples", setup_times) << "\n";

  // The batch references, one thread per tenant.
  const double ref0 = Now();
  std::vector<std::thread> threads;
  for (Tenant& tenant : tenants) {
    threads.emplace_back([&tenant] {
      popp::Rng rng(tenant.seed);
      const popp::TransformPlan plan = popp::TransformPlan::Create(
          tenant.data, popp::PiecewiseOptions{}, rng);
      tenant.plan_document = popp::SerializePlan(plan);
      tenant.csv = popp::ToCsvString(plan.EncodeDataset(tenant.data));
      tenant.data = popp::Dataset();
    });
  }
  for (std::thread& t : threads) t.join();
  std::cout << "batch references: " << tenants.size() << " x "
            << tenants[0].csv.size() << " bytes in " << Num(Now() - ref0)
            << " s\n";

  std::vector<double> walls, rates, rss;
  const auto record = [&](const std::vector<ReleaseRun>& round) {
    for (const ReleaseRun& run : round) {
      ++outcome->attempted;
      if (!run.ok) {
        ++outcome->failed;
        continue;
      }
      const double wall = run.kv.at("wall_s");
      walls.push_back(wall);
      rates.push_back(run.kv.at("rows") / wall);
      rss.push_back(run.kv.at("peak_rss_mb"));
    }
  };

  if (!config.trace) {
    const double start = Now();
    int round = 0;
    while (round == 0 || Now() - start < config.seconds) {
      record(RunRound(config, sharded, false, tenants, round++));
    }
    std::cout << walls.size() << " releases in " << round << " rounds\n";
    outcome->metrics = {
        {"setup_s", Median(setup_times), "s"},
        {"rows_per_s", Median(rates), "1/s"},
        {"peak_rss_mb", Median(rss), "MB"},
        {"p50_ms", 1e3 * Median(walls), "ms"},
        {"p90_ms", 1e3 * Quantile(walls, 0.9), "ms"}};
  } else {
    // One untraced round as the overhead baseline, then one with tenant 0
    // traced (the other tenants keep the cores as busy as when measured).
    const std::vector<ReleaseRun> base = RunRound(config, sharded, false, tenants, 0);
    const std::vector<ReleaseRun> traced = RunRound(config, sharded, true, tenants, 1);
    record(base);
    record(traced);
    std::string ledger;
    ReadFile("ledger.txt", &ledger);
    std::cout << ledger;
    if (base[0].ok && traced[0].ok) {
      const double untraced_s = base[0].kv.at("wall_s");
      const double traced_s = traced[0].kv.at("wall_s");
      KeyValues kv = traced[0].kv;
      kv["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s;
      for (const auto& [key, value] : kv) {
        if (key.find('.') != std::string::npos) {
          outcome->metrics.push_back({key, value, ""});
        }
      }
      std::cout << "tracing overhead: traced " << Num(traced_s)
                << " s vs untraced " << Num(untraced_s) << " s\n";
    }
  }
  RemoveOutputs();
  for (size_t k = 0; k < tenants.size(); ++k) {
    std::filesystem::remove(InputPath(k));
  }
  return 0;
}

}  // namespace perfbench
