// The serve workload: an open-loop generator against a separately started
// `popp-serve --threads 4`.
//
// Requests are due on a fixed schedule derived from the seed: evenly
// spaced at one offered rate, their kinds repeating one block of ten
// entered at a seeded offset (5 warm popp-cols encodes of 100k rows on
// tenant `cols`, 4 warm CSV encodes of 10k rows on tenant `csv`, 1 `fit`
// with a fresh seed on tenant `cols`, which misses the plan cache and holds
// that tenant's workspace lock beside the encodes). At most four connections carry them;
// a request whose connection is still busy when it falls due waits, and
// every latency is timed from when the request was due.
//
// Each tenant only ever sends the one dataset its warm plan was fitted
// on. The plan cache is keyed by (schema fingerprint, seed, policy), not
// by the data, so a same-schema request with different data would be
// encoded with the first dataset's plan and fail the byte check below;
// this traffic stays valid when that key gains a data fingerprint.
//
// Every reply is checked against the library: the encode replies against
// TransformPlan::EncodeDataset on the canonical (re-parsed) dataset, the
// fit replies against SerializePlan(TransformPlan::Create(...)).

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "data/cols.h"
#include "data/csv.h"
#include "serve/client.h"
#include "serve/plan_cache.h"
#include "serve/protocol.h"
#include "stream/chunk_io.h"
#include "synth/covtype_like.h"
#include "trace.h"
#include "transform/compiled.h"
#include "transform/plan.h"
#include "transform/serialize.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using popp::serve::RequestBody;
using popp::serve::ServeClient;
using popp::serve::Tag;

constexpr const char* kSocket = "serve.sock";
constexpr size_t kConnections = 4;
constexpr const char* kServeThreads = "4";
/// Offered load, requests per second: about half the saturation rate of
/// the seed build on a 4-core host (see perfbench/README.md; to re-measure
/// saturation, raise this until the generator falls behind).
constexpr double kOfferedRate = 8.0;
/// Seeds of the fit lane start here, far from any encode seed.
constexpr uint64_t kFitSeedBase = 1000000;

enum Kind { kCols = 0, kCsv = 1, kFit = 2 };
const char* const kLaneRoot[] = {"serve.encode_cols", "serve.encode_csv",
                                 "serve.fit"};

struct Inputs {
  popp::Dataset cols_data;  ///< what the server parses from cols_bytes
  popp::Dataset csv_data;   ///< what the server parses from csv_bytes
  std::string cols_bytes;
  std::string csv_bytes;
};

Inputs MakeInputs(const RunConfig& config) {
  const size_t cols_rows = config.tiny ? 20000 : 100000;
  const size_t csv_rows = config.tiny ? 2000 : 10000;
  popp::Rng rng(config.seed);
  const popp::Dataset generated = popp::GenerateCovtypeLike(
      popp::DefaultCovtypeSpec(cols_rows), rng);
  Inputs in;
  // Canonical datasets: what the request bytes parse back to.
  in.cols_data = popp::ParseCsv(popp::ToCsvString(generated)).value();
  in.cols_bytes = popp::SerializeCols(in.cols_data);
  popp::stream::DatasetChunkReader head(&in.cols_data);
  in.csv_bytes = popp::ToCsvString(head.NextChunk(csv_rows).value());
  in.csv_data = popp::ParseCsv(in.csv_bytes).value();
  return in;
}

/// One scheduled request and what happened to it.
struct Request {
  Kind kind = kCols;
  uint64_t seed = 0;
  double due = 0;  ///< seconds after the schedule start
  double sent = 0;
  double done = 0;
  bool ok = false;
  bool shed = false;
};

/// Expected reply bodies and the plans the trace replays with.
struct Expected {
  popp::TransformPlan cols_plan;
  popp::TransformPlan csv_plan;
  popp::CompiledPlan cols_compiled;
  popp::CompiledPlan csv_compiled;
  std::string cols_reply;
  std::string csv_reply;
  std::map<uint64_t, std::string> fit_reply;  ///< by fit seed
};

popp::TransformPlan Fit(const popp::Dataset& data, uint64_t seed) {
  popp::Rng rng(seed);
  return popp::TransformPlan::Create(data, popp::PiecewiseOptions{}, rng);
}

/// `first_fit` offsets the fit seeds, so a second pass over a schedule
/// still misses the plan cache on every fit.
std::vector<Request> MakeSchedule(uint64_t seed, double seconds, double rate,
                                  size_t first_fit) {
  const size_t n = std::max<size_t>(10, std::ceil(seconds * rate));
  // One fixed interleave of the 5:4:1 mix, entered at a seeded offset: the
  // fits never bunch up, so runs of different seeds queue alike.
  static constexpr Kind kBlock[] = {kCols, kCsv, kCols, kCsv, kCols,
                                    kFit,  kCols, kCsv, kCols, kCsv};
  popp::Rng rng(seed);
  const size_t offset = static_cast<size_t>(rng.UniformInt(0, 9));
  std::vector<Request> schedule;
  size_t fits = first_fit;
  for (size_t i = 0; i < n; ++i) {
    Request r;
    r.kind = kBlock[(i + offset) % 10];
    r.seed = r.kind == kFit ? kFitSeedBase + seed * 1000 + fits++ : seed;
    r.due = static_cast<double>(i) / rate;
    schedule.push_back(r);
  }
  return schedule;
}

std::string OptionsText(uint64_t seed) {
  return "seed " + std::to_string(seed) + "\n";
}

/// The daemon process; stopped (and waited for) on every exit path.
class Daemon {
 public:
  explicit Daemon(const RunConfig& config) {
    std::remove(kSocket);
    pid_ = Spawn({config.serve_path, kSocket, "--threads", kServeThreads},
                 "serve.log");
  }
  ~Daemon() {
    if (pid_ > 0) {
      kill(pid_, SIGTERM);
      WaitChild(pid_);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Connects once the socket accepts, within `timeout` seconds.
  bool Connect(ServeClient& client, double timeout) const {
    const double start = Now();
    while (Now() - start < timeout) {
      if (client.Connect(kSocket).ok()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  }

  double PeakRssMb() const { return perfbench::PeakRssMb(std::to_string(pid_)); }

  /// Graceful shutdown through the protocol; returns the daemon's exit code.
  int Shutdown(ServeClient& client) {
    (void)client.Call(Tag::kShutdown, "", RequestBody{});
    const int exit_code = WaitChild(pid_);
    pid_ = -1;
    return exit_code;
  }

 private:
  pid_t pid_ = -1;
};

bool CheckReply(const popp::Result<popp::serve::ReplyBody>& reply,
                const std::string& expected, bool* shed) {
  *shed = reply.ok() && reply.value().code == popp::StatusCode::kUnavailable;
  return reply.ok() && reply.value().ok() && reply.value().body == expected;
}

/// Replays the layer calls of one request on the generator thread, on the
/// same bytes, as estimate spans under the request's call span.
void ReplayRequest(const Request& r, const std::string& tenant,
                   const RequestBody& body, const std::string& reply_body,
                   const Expected& expected, int64_t call, int64_t id,
                   Tracer* t) {
  double at = t->spans()[call].start;
  const auto add = [&](const char* name, double seconds) {
    t->Add(name, at, at + seconds, call, id);
    at += seconds;
  };
  const double replay_start = Now();
  double t0 = Now();
  const std::string frame =
      popp::serve::EncodeFrame(r.kind == kFit ? Tag::kFit : Tag::kEncode,
                               tenant, body.Encode());
  const auto decoded = popp::serve::DecodeFrame(frame);
  (void)RequestBody::Decode(decoded.value().payload);
  const std::string reply_frame = popp::serve::EncodeFrame(
      Tag::kReply, "", popp::serve::ReplyBody::Ok("", reply_body).Encode());
  const auto reply_decoded = popp::serve::DecodeFrame(reply_frame);
  (void)popp::serve::ReplyBody::Decode(reply_decoded.value().payload);
  add("serve.frame", Now() - t0);

  t0 = Now();
  const popp::Dataset data = r.kind == kCsv
                                 ? popp::ParseCsv(body.dataset).value()
                                 : popp::ParseCols(body.dataset).value();
  add(r.kind == kCsv ? "data.csv_parse" : "data.cols_parse", Now() - t0);

  t0 = Now();
  (void)popp::serve::PlanKey::Make(data.schema(), r.seed,
                                   popp::PiecewiseOptions{});
  add("serve.plan_key", Now() - t0);

  if (r.kind == kFit) {
    t0 = Now();
    const popp::TransformPlan plan = Fit(data, r.seed);
    add("transform.fit", Now() - t0);
    t0 = Now();
    (void)popp::CompiledPlan::Compile(plan);
    add("transform.compile", Now() - t0);
    t0 = Now();
    (void)popp::SerializePlan(plan);
    add("serve.plan_doc", Now() - t0);
  } else {
    const popp::CompiledPlan& compiled =
        r.kind == kCols ? expected.cols_compiled : expected.csv_compiled;
    t0 = Now();
    const popp::Dataset released = compiled.EncodeDataset(data);
    add("transform.kernel", Now() - t0);
    t0 = Now();
    if (r.kind == kCols) {
      (void)popp::SerializeCols(released);
      add("data.cols_serialize", Now() - t0);
    } else {
      (void)popp::ToCsvString(released);
      add("data.csv_format", Now() - t0);
    }
  }
  t->Add("trace.replay", replay_start, Now(), -1, id);
}

/// Runs the schedule once over kConnections connections.
bool RunSchedule(const Inputs& in, const Expected& expected,
                 std::vector<Request>& schedule, bool trace, Tracer* tracer) {
  std::atomic<size_t> next{0};
  std::atomic<bool> connected{true};
  std::vector<Tracer> tracers(kConnections);
  const double start = Now() + 0.05;
  const auto worker = [&](size_t w) {
    ServeClient client;
    if (!client.Connect(kSocket).ok()) {
      connected = false;
      return;
    }
    for (size_t i = next++; i < schedule.size(); i = next++) {
      Request& r = schedule[i];
      const double due = start + r.due;
      const double wait = due - Now();
      if (wait > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      }
      const std::string tenant = r.kind == kCsv ? "csv" : "cols";
      RequestBody body;
      body.options = OptionsText(r.seed);
      body.dataset = r.kind == kCsv ? in.csv_bytes : in.cols_bytes;
      r.sent = Now();
      const auto reply =
          client.Call(r.kind == kFit ? Tag::kFit : Tag::kEncode, tenant, body);
      r.done = Now();
      const std::string& want = r.kind == kCols  ? expected.cols_reply
                                : r.kind == kCsv ? expected.csv_reply
                                                 : expected.fit_reply.at(r.seed);
      r.ok = CheckReply(reply, want, &r.shed);
      // Latencies are measured from when the request was due.
      r.sent -= start;
      r.done -= start;
      if (trace && reply.ok()) {
        Tracer& t = tracers[w];
        t.Add("serve.gen_wait", start + r.due, start + r.sent, -1, i);
        const int64_t call =
            t.Add(kLaneRoot[r.kind], start + r.sent, start + r.done, -1, i);
        ReplayRequest(r, tenant, body, reply.value().body, expected, call, i,
                      &t);
      }
    }
  };
  std::vector<std::thread> threads;
  for (size_t w = 0; w < kConnections; ++w) threads.emplace_back(worker, w);
  for (std::thread& thread : threads) thread.join();
  for (const Tracer& t : tracers) tracer->Merge(t);
  return connected;
}

/// Reads "key: value" lines of a stats reply.
double StatsField(const std::string& text, const std::string& key) {
  const size_t at = text.find(key + ": ");
  return at == std::string::npos ? 0.0
                                 : std::atof(text.c_str() + at + key.size() + 2);
}

struct LaneStats {
  std::vector<double> latency;  ///< seconds from due to reply
  double rows = 0;
};

}  // namespace

int RunServeWorkload(const RunConfig& config, Outcome* outcome) {
  // Untimed preparation: the expected replies of every request.
  Inputs in = MakeInputs(config);
  std::vector<Request> schedule =
      MakeSchedule(config.seed, config.seconds, kOfferedRate, 0);
  // The traced mode first runs a twin schedule untraced, as the baseline
  // of the tracing overhead; its fits use other seeds.
  std::vector<Request> baseline;
  if (config.trace) {
    baseline = MakeSchedule(config.seed, config.seconds, kOfferedRate, 500);
  }
  const double prep0 = Now();
  Expected expected;
  expected.cols_plan = Fit(in.cols_data, config.seed);
  expected.csv_plan = Fit(in.csv_data, config.seed);
  expected.cols_compiled = popp::CompiledPlan::Compile(expected.cols_plan);
  expected.csv_compiled = popp::CompiledPlan::Compile(expected.csv_plan);
  expected.cols_reply =
      popp::SerializeCols(expected.cols_plan.EncodeDataset(in.cols_data));
  expected.csv_reply =
      popp::ToCsvString(expected.csv_plan.EncodeDataset(in.csv_data));
  for (const auto* requests : {&schedule, &baseline}) {
    for (const Request& r : *requests) {
      if (r.kind == kFit) {
        expected.fit_reply[r.seed] =
            popp::SerializePlan(Fit(in.cols_data, r.seed));
      }
    }
  }
  std::cout << "serve reference: " << schedule.size() << " requests at "
            << kOfferedRate << "/s, expected replies in "
            << Num(Now() - prep0) << " s\n";

  // Set-up, five times: inputs, daemon start, first health reply, and the
  // cold warm-up requests that fit each tenant's plan. The last daemon
  // stays up for the measurement.
  std::vector<double> setup_times;
  std::unique_ptr<Daemon> daemon;
  ServeClient control;
  for (int i = 0; i < 5; ++i) {
    if (daemon != nullptr) {
      daemon->Shutdown(control);
      control.Close();
    }
    const double t0 = Now();
    in = MakeInputs(config);
    daemon = std::make_unique<Daemon>(config);
    if (!daemon->Connect(control, 30)) {
      std::cerr << "popp-serve did not accept connections\n";
      return 1;
    }
    const auto health = control.Call(Tag::kHealth, "", RequestBody{});
    bool shed = false;
    RequestBody cols;
    cols.options = OptionsText(config.seed);
    cols.dataset = in.cols_bytes;
    RequestBody csv = cols;
    csv.dataset = in.csv_bytes;
    const bool warm_ok =
        health.ok() && health.value().ok() &&
        CheckReply(control.Call(Tag::kEncode, "cols", cols),
                   expected.cols_reply, &shed) &&
        CheckReply(control.Call(Tag::kEncode, "csv", csv), expected.csv_reply,
                   &shed);
    setup_times.push_back(Now() - t0);
    outcome->attempted += 3;
    if (!warm_ok) {
      ++outcome->failed;
      std::cerr << "serve warm-up failed or mismatched\n";
    }
  }

  std::cout << Samples("setup_s samples", setup_times) << "\n";
  // Measurement. The daemon pins each connection to one of its worker
  // threads while the connection is open, so the idle control connection
  // is closed first: the generator's four connections get all four.
  control.Close();
  Tracer tracer;
  if (config.trace) RunSchedule(in, expected, baseline, false, &tracer);
  const bool connected =
      RunSchedule(in, expected, schedule, config.trace, &tracer);
  if (!connected) {
    ++outcome->failed;
    std::cerr << "a generator connection failed\n";
  }
  if (!daemon->Connect(control, 30)) {
    std::cerr << "popp-serve did not accept the control connection\n";
    return 1;
  }

  double stats[2][2] = {};  // tenant cols/csv x hits/misses
  const char* const tenants[] = {"cols", "csv"};
  for (int k = 0; k < 2; ++k) {
    const auto reply = control.Call(Tag::kStats, tenants[k], RequestBody{});
    if (reply.ok()) {
      stats[k][0] = StatsField(reply.value().body, "cache_hits");
      stats[k][1] = StatsField(reply.value().body, "cache_misses");
    }
  }
  const double daemon_rss_mb = daemon->PeakRssMb();
  const int daemon_exit = daemon->Shutdown(control);
  daemon.reset();

  LaneStats lanes[3];
  std::vector<double> late;
  double shed = 0;
  const auto collect = [&](const std::vector<Request>& requests,
                           LaneStats* out, std::vector<double>* lateness) {
    for (const Request& r : requests) {
      ++outcome->attempted;
      if (!r.ok) {
        ++outcome->failed;
        shed += r.shed ? 1 : 0;
        continue;
      }
      out[r.kind].latency.push_back(r.done - r.due);
      out[r.kind].rows += r.kind == kCols   ? in.cols_data.NumRows()
                          : r.kind == kCsv ? in.csv_data.NumRows()
                                           : 0;
      if (lateness != nullptr) lateness->push_back(r.sent - r.due);
    }
  };
  collect(schedule, lanes, &late);
  if (daemon_exit != 0) {
    ++outcome->failed;
    std::cerr << "popp-serve exited with " << daemon_exit << "\n";
  }

  const auto ms = [](const std::vector<double>& v, double q) {
    return 1e3 * Quantile(v, q);
  };
  const char* const lane_names[] = {"encode_cols", "encode_csv", "fit"};
  for (int k = 0; k < 3; ++k) {
    std::cout << lane_names[k] << ": " << lanes[k].latency.size()
              << " requests, p50 " << Num(ms(lanes[k].latency, 0.5))
              << " ms, p90 " << Num(ms(lanes[k].latency, 0.9)) << " ms\n";
  }
  const double hits = stats[0][0] + stats[1][0];
  const double lookups = hits + stats[0][1] + stats[1][1];
  std::cout << "plan cache: " << hits << " hits of " << lookups
            << " lookups; shed " << shed << "; generator late p90 "
            << Num(ms(late, 0.9)) << " ms; daemon peak RSS "
            << Num(daemon_rss_mb) << " MB\n";

  if (!config.trace) {
    double rows = 0, busy = 0;
    for (int k : {kCols, kCsv}) {
      rows += lanes[k].rows;
      for (double s : lanes[k].latency) busy += s;
    }
    outcome->metrics = {
        {"setup_s", Median(setup_times), "s"},
        {"rows_per_s", busy > 0 ? rows / busy : 0, "1/s"},
        {"peak_rss_mb", daemon_rss_mb, "MB"},
        {"p50_ms", ms(lanes[kCols].latency, 0.5), "ms"},
        {"p90_ms", ms(lanes[kCols].latency, 0.9), "ms"}};
    return 0;
  }

  // Per-layer metrics: per-request medians of each lane's ledger lines.
  LaneStats base[3];
  collect(baseline, base, nullptr);
  tracer.WriteJsonl("spans.jsonl");
  std::vector<Metric>& m = outcome->metrics;
  // Median over a lane's requests of one ledger line ("call": the whole
  // Call).
  const auto per_request = [&](const std::string& root,
                               const std::string& layer) {
    std::vector<double> values;
    for (const auto& self : tracer.SelfTimesPerRoot(root)) {
      double v = 0;
      for (const auto& [name, seconds] : self) {
        if (layer == "call" || name == layer) v += seconds;
      }
      values.push_back(v);
    }
    return Median(values);
  };
  for (int k = 0; k < 3; ++k) {
    Ledger ledger = MakeLedger(tracer, kLaneRoot[k],
                               std::string(lane_names[k]) + " per request");
    const double n = std::max<double>(1, lanes[k].latency.size());
    std::cout << ledger.Render("ms", 1e3 / n);
    if (k == kCols && ledger.wall > 0) {
      m.push_back({"ledger.unattributed_frac",
                   ledger.Get("unattributed") / ledger.wall, "1"});
    }
  }
  const std::string cols = kLaneRoot[kCols];
  m.push_back({"data.cols_parse_ms", 1e3 * per_request(cols, "data.cols_parse"), "ms"});
  m.push_back({"data.cols_serialize_ms",
               1e3 * per_request(cols, "data.cols_serialize"), "ms"});
  m.push_back({"serve.frame_ms", 1e3 * per_request(cols, "serve.frame"), "ms"});
  m.push_back({"serve.plan_key_ms", 1e3 * per_request(cols, "serve.plan_key"), "ms"});
  m.push_back({"serve.call_ms", 1e3 * per_request(cols, "call"), "ms"});
  m.push_back({"serve.unattributed_ms", 1e3 * per_request(cols, "unattributed"), "ms"});
  m.push_back({"transform.kernel_s", per_request(cols, "transform.kernel"), "s"});
  m.push_back({"data.csv_parse_s",
               per_request(kLaneRoot[kCsv], "data.csv_parse"), "s"});
  m.push_back({"data.csv_format_s",
               per_request(kLaneRoot[kCsv], "data.csv_format"), "s"});
  m.push_back({"transform.fit_s", per_request(kLaneRoot[kFit], "transform.fit"), "s"});
  m.push_back({"transform.compile_s",
               per_request(kLaneRoot[kFit], "transform.compile"), "s"});
  m.push_back({"serve.cache_hits", hits, "count"});
  m.push_back({"serve.cache_misses", lookups - hits, "count"});
  m.push_back({"serve.cache_hit_ratio", lookups > 0 ? hits / lookups : 0, "1"});
  m.push_back({"serve.shed", shed, "count"});
  m.push_back({"serve.gen_late_ms", ms(late, 0.9), "ms"});
  const double untraced = Median(base[kCols].latency);
  m.push_back({"trace.overhead_frac",
               untraced > 0 ? Median(lanes[kCols].latency) / untraced - 1 : 0,
               "1"});
  std::cout << "tracing overhead: warm cols p50 traced "
            << Num(ms(lanes[kCols].latency, 0.5)) << " ms vs untraced "
            << Num(ms(base[kCols].latency, 0.5)) << " ms\n";
  return 0;
}

}  // namespace perfbench
