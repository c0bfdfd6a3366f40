#include <gtest/gtest.h>

#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "data/cols.h"
#include "data/csv.h"
#include "fault/failpoint.h"
#include "fault/file.h"
#include "parallel/exec_policy.h"
#include "serve/client.h"
#include "serve/ops.h"
#include "serve/plan_cache.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/workspace.h"
#include "synth/covtype_like.h"
#include "synth/presets.h"
#include "transform/compiled.h"
#include "transform/plan.h"
#include "transform/serialize.h"
#include "util/crc64.h"
#include "util/rng.h"

namespace popp::serve {
namespace {

std::string TempSocketPath(const std::string& name) {
  return testing::TempDir() + "popp_srv_" + std::to_string(::getpid()) +
         "_" + name;
}

// ---------------------------------------------------------------------------
// Protocol framing (pure byte-string codec, no socket).

TEST(ServeProtocolTest, FrameRoundTrip) {
  const std::string payload("payload \x01\x02\x00 bytes", 17);
  const std::string bytes = EncodeFrame(Tag::kEncode, "tenant-a", payload);
  auto frame = DecodeFrame(bytes);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame.value().version, kProtocolVersion);
  EXPECT_EQ(frame.value().tag, Tag::kEncode);
  EXPECT_EQ(frame.value().tenant, "tenant-a");
  EXPECT_EQ(frame.value().payload, payload);
}

TEST(ServeProtocolTest, EmptyTenantAndPayloadRoundTrip) {
  auto frame = DecodeFrame(EncodeFrame(Tag::kShutdown, "", ""));
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame.value().tag, Tag::kShutdown);
  EXPECT_TRUE(frame.value().tenant.empty());
  EXPECT_TRUE(frame.value().payload.empty());
}

TEST(ServeProtocolTest, TruncatedFrameIsDataLoss) {
  const std::string bytes = EncodeFrame(Tag::kStats, "t", "payload");
  for (size_t cut : {size_t{0}, size_t{3}, bytes.size() - 1}) {
    auto frame = DecodeFrame(bytes.substr(0, cut));
    ASSERT_FALSE(frame.ok()) << "cut at " << cut;
    EXPECT_EQ(frame.status().code(), StatusCode::kDataLoss) << "cut at "
                                                            << cut;
  }
}

TEST(ServeProtocolTest, DamagedByteIsCrcDataLoss) {
  std::string bytes = EncodeFrame(Tag::kFit, "tenant", "payload");
  bytes[bytes.size() / 2] ^= 0x40;  // damage inside the body
  auto frame = DecodeFrame(bytes);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(frame.status().message().find("CRC"), std::string::npos);
}

/// Builds a frame by hand so the version byte can disagree while the CRC
/// stays valid (EncodeFrame always stamps the supported version).
std::string HandcraftedFrame(uint8_t version, Tag tag,
                             const std::string& tenant,
                             const std::string& payload) {
  std::string body;
  body.push_back(static_cast<char>(version));
  body.push_back(static_cast<char>(tag));
  const uint16_t tenant_len = static_cast<uint16_t>(tenant.size());
  body.push_back(static_cast<char>(tenant_len & 0xff));
  body.push_back(static_cast<char>(tenant_len >> 8));
  body += tenant;
  body += payload;
  const uint64_t crc = Crc64(body);
  const uint32_t frame_len = static_cast<uint32_t>(body.size() + 8);
  std::string bytes;
  for (int i = 0; i < 4; ++i) {
    bytes.push_back(static_cast<char>((frame_len >> (8 * i)) & 0xff));
  }
  bytes += body;
  for (int i = 0; i < 8; ++i) {
    bytes.push_back(static_cast<char>((crc >> (8 * i)) & 0xff));
  }
  return bytes;
}

TEST(ServeProtocolTest, VersionMismatchIsInvalidArgumentNamingBoth) {
  auto frame = DecodeFrame(HandcraftedFrame(9, Tag::kStats, "t", "p"));
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(frame.status().message().find("9"), std::string::npos);
  EXPECT_NE(frame.status().message().find(
                std::to_string(int{kProtocolVersion})),
            std::string::npos);
}

TEST(ServeProtocolTest, HandcraftedCurrentVersionDecodes) {
  auto frame = DecodeFrame(
      HandcraftedFrame(kProtocolVersion, Tag::kRisk, "ten", "pay"));
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame.value().tag, Tag::kRisk);
  EXPECT_EQ(frame.value().tenant, "ten");
  EXPECT_EQ(frame.value().payload, "pay");
}

TEST(ServeProtocolTest, OversizeFrameIsRejectedBeforeAllocation) {
  const std::string bytes = EncodeFrame(Tag::kEncode, "t",
                                        std::string(256, 'x'));
  auto frame = DecodeFrame(bytes, /*max_frame_bytes=*/64);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
}

TEST(ServeProtocolTest, RequestBodyRoundTrip) {
  RequestBody request;
  request.options = "seed 7\npolicy bp\n";
  request.extra = std::string("tree\x00kov", 8);
  request.dataset = "a,b,class\n1,2,x\n";
  auto decoded = RequestBody::Decode(request.Encode());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().options, request.options);
  EXPECT_EQ(decoded.value().extra, request.extra);
  EXPECT_EQ(decoded.value().dataset, request.dataset);
}

TEST(ServeProtocolTest, ReplyBodyRoundTripCarriesCode) {
  const ReplyBody reply =
      ReplyBody::Error(Status::DataLoss("checksum mismatch"));
  auto decoded = ReplyBody::Decode(reply.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().code, StatusCode::kDataLoss);
  EXPECT_FALSE(decoded.value().ok());
  EXPECT_NE(decoded.value().text.find("checksum"), std::string::npos);
}

TEST(ServeProtocolTest, ParseTagNames) {
  for (Tag tag : {Tag::kFit, Tag::kEncode, Tag::kDecode, Tag::kVerify,
                  Tag::kRisk, Tag::kStats, Tag::kShutdown}) {
    auto parsed = ParseTag(TagName(tag));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), tag);
  }
  EXPECT_FALSE(ParseTag("frobnicate").ok());
}

// ---------------------------------------------------------------------------
// Plan cache: key canonicalization and strict LRU.

TEST(PlanCacheKeyTest, PolicyFingerprintSeparatesEveryKnob) {
  const PiecewiseOptions base;
  PiecewiseOptions changed = base;
  changed.min_breakpoints = base.min_breakpoints + 1;
  EXPECT_NE(PolicyFingerprint(base), PolicyFingerprint(changed));
  changed = base;
  changed.global_anti_monotone = !base.global_anti_monotone;
  EXPECT_NE(PolicyFingerprint(base), PolicyFingerprint(changed));
  changed = base;
  changed.gap_fraction += 0.125;
  EXPECT_NE(PolicyFingerprint(base), PolicyFingerprint(changed));
  EXPECT_EQ(PolicyFingerprint(base), PolicyFingerprint(PiecewiseOptions{}));
}

TEST(PlanCacheKeyTest, SchemaFingerprintSeparatesVocabulary) {
  const Schema a({"x", "y"}, {"yes", "no"});
  const Schema same({"x", "y"}, {"yes", "no"});
  const Schema renamed({"x", "z"}, {"yes", "no"});
  const Schema relabeled({"x", "y"}, {"no", "yes"});
  EXPECT_EQ(SchemaFingerprint(a), SchemaFingerprint(same));
  EXPECT_NE(SchemaFingerprint(a), SchemaFingerprint(renamed));
  EXPECT_NE(SchemaFingerprint(a), SchemaFingerprint(relabeled));
}

PlanKey KeyNumbered(uint64_t n) {
  PlanKey key;
  key.schema_fp = 0xfeedu;
  key.seed = n;
  key.policy = "p";
  return key;
}

TEST(PlanCacheTest, EvictsLeastRecentlyUsedAtTinyCapacity) {
  PlanCache cache(2);
  cache.Insert(KeyNumbered(1), CachedPlan{});
  cache.Insert(KeyNumbered(2), CachedPlan{});
  EXPECT_NE(cache.Lookup(KeyNumbered(1)), nullptr);  // promotes 1 over 2
  cache.Insert(KeyNumbered(3), CachedPlan{});        // evicts 2
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(cache.Lookup(KeyNumbered(1)), nullptr);
  EXPECT_EQ(cache.Lookup(KeyNumbered(2)), nullptr);
  EXPECT_NE(cache.Lookup(KeyNumbered(3)), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().hits, 3u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().resident, 2u);
  EXPECT_EQ(cache.stats().capacity, 2u);
}

TEST(PlanCacheTest, CapacityOneThrashes) {
  PlanCache cache(1);
  for (uint64_t n = 0; n < 5; ++n) {
    EXPECT_EQ(cache.Lookup(KeyNumbered(n)), nullptr);
    cache.Insert(KeyNumbered(n), CachedPlan{});
    EXPECT_NE(cache.Lookup(KeyNumbered(n)), nullptr);
  }
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().evictions, 4u);
}

// ---------------------------------------------------------------------------
// Workspace registry: stable pointers, tenant isolation.

TEST(WorkspaceRegistryTest, StablePerTenantWorkspaces) {
  WorkspaceRegistry registry(4);
  Workspace* a = registry.GetOrCreate("alice");
  Workspace* b = registry.GetOrCreate("bob");
  Workspace* base = registry.GetOrCreate("");
  EXPECT_NE(a, b);
  EXPECT_NE(a, base);
  EXPECT_EQ(registry.GetOrCreate("alice"), a);
  EXPECT_EQ(registry.size(), 3u);
  EXPECT_EQ(a->name(), "alice");

  // Filling alice's cache never touches bob's.
  a->cache().Insert(KeyNumbered(1), CachedPlan{});
  a->cache().Insert(KeyNumbered(2), CachedPlan{});
  EXPECT_EQ(b->cache().size(), 0u);
  EXPECT_EQ(b->cache().stats().evictions, 0u);
}

TEST(ServeOpsTest, NumericOptionsAreStrictAndNoCompiledIsRefused) {
  Workspace workspace("strict", 4);
  RequestBody request;
  request.dataset = "a,class\n1,x\n2,y\n3,x\n";
  for (const std::string options :
       {"seed 3x\n", "seed -1\n", "breakpoints 2abc\n", "threads \n",
        "trials 1e3\n", "deadline-ms 5ms\n", "no-compiled\n"}) {
    request.options = options;
    const ReplyBody reply =
        DispatchOp(Tag::kEncode, workspace, request, OpConfig{});
    EXPECT_EQ(reply.code, StatusCode::kInvalidArgument) << options;
    const std::string key = options.substr(0, options.find_first_of(" \n"));
    EXPECT_NE(reply.text.find("'" + key + "'"), std::string::npos)
        << reply.text;
  }
  request.options = "seed 3\nbreakpoints 4\nthreads 2\ndeadline-ms 60000\n";
  EXPECT_TRUE(DispatchOp(Tag::kEncode, workspace, request, OpConfig{}).ok());
  // The admission peek leaves a malformed deadline to the op's parse.
  EXPECT_EQ(ExtractDeadlineMs("deadline-ms 5ms\n"), UINT64_MAX);
  EXPECT_EQ(ExtractDeadlineMs("seed 1\ndeadline-ms 250\n"), 250u);
}

// ---------------------------------------------------------------------------
// End-to-end daemon tests over a real Unix socket.

/// A daemon running on a background thread for one test.
struct TestServer {
  ServeOptions options;
  std::unique_ptr<Server> server;
  std::thread thread;
  std::ostringstream log;
  int exit_code = -1;

  Status Start(ServeOptions opts) {
    options = std::move(opts);
    server = std::make_unique<Server>(options);
    const Status started = server->Start();
    if (!started.ok()) return started;
    thread = std::thread([this] { exit_code = server->Serve(log); });
    return Status::Ok();
  }

  /// Requests a drain and joins; returns the daemon's exit code.
  int Shutdown() {
    if (server != nullptr) server->RequestShutdown();
    if (thread.joinable()) thread.join();
    return exit_code;
  }

  ~TestServer() { Shutdown(); }
};

class ServeEndToEndTest : public testing::Test {
 protected:
  void SetUp() override {
    Rng rng(11);
    const Dataset generated = GenerateCovtypeLike(SmallCovtypeSpec(600), rng);
    // The canonical dataset is what the CSV request framing parses to
    // (class ids in order of first appearance).
    auto canonical = ParseCsv(ToCsvString(generated));
    ASSERT_TRUE(canonical.ok());
    data_ = std::move(canonical).value();
    csv_bytes_ = ToCsvString(data_);
    cols_bytes_ = SerializeCols(data_);
  }

  /// The release `popp encode --seed N` computes for these bytes.
  Dataset ExpectedRelease(uint64_t seed,
                          const PiecewiseOptions& options) const {
    Rng rng(seed);
    const TransformPlan plan =
        TransformPlan::Create(data_, options, rng, ExecPolicy{1});
    return CompiledPlan::Compile(plan).EncodeDataset(data_, ExecPolicy{1});
  }

  /// What `popp encode --seed N` writes (a CSV-framed reply body).
  std::string ExpectedEncode(uint64_t seed,
                             const PiecewiseOptions& options) const {
    return ToCsvString(ExpectedRelease(seed, options));
  }

  static std::string OptionsText(uint64_t seed, size_t threads) {
    return "seed " + std::to_string(seed) + "\npolicy bp\nthreads " +
           std::to_string(threads) + "\n";
  }

  Dataset data_;
  std::string csv_bytes_;
  std::string cols_bytes_;
};

TEST_F(ServeEndToEndTest, EncodeMatchesLibraryAcrossFramingsAndThreads) {
  ServeOptions options;
  options.socket_path = TempSocketPath("enc");
  options.num_threads = 2;
  TestServer daemon;
  ASSERT_TRUE(daemon.Start(options).ok());

  PiecewiseOptions transform;
  transform.policy = BreakpointPolicy::kChooseBP;
  const Dataset release = ExpectedRelease(9, transform);
  // The reply mirrors the request framing.
  const std::string expected_csv = ToCsvString(release);
  const std::string expected_cols = SerializeCols(release);

  ServeClient client;
  ASSERT_TRUE(client.Connect(options.socket_path).ok());
  bool first = true;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{7}}) {
    for (const std::string* bytes : {&csv_bytes_, &cols_bytes_}) {
      RequestBody request;
      request.options = OptionsText(9, threads);
      request.dataset = *bytes;
      auto reply = client.Call(Tag::kEncode, "t", request);
      ASSERT_TRUE(reply.ok()) << reply.status().ToString();
      ASSERT_TRUE(reply.value().ok()) << reply.value().text;
      EXPECT_EQ(reply.value().body,
                bytes == &cols_bytes_ ? expected_cols : expected_csv);
      EXPECT_NE(reply.value().text.find(first ? "cold plan" : "hot plan"),
                std::string::npos)
          << reply.value().text;
      first = false;
    }
  }
  EXPECT_EQ(daemon.Shutdown(), 0);
}

TEST_F(ServeEndToEndTest, LruEvictionUnderTinyCapacity) {
  ServeOptions options;
  options.socket_path = TempSocketPath("lru");
  options.cache_capacity = 1;
  TestServer daemon;
  ASSERT_TRUE(daemon.Start(options).ok());

  ServeClient client;
  ASSERT_TRUE(client.Connect(options.socket_path).ok());
  // Alternating seeds with capacity 1: every request misses and evicts.
  for (uint64_t round = 0; round < 3; ++round) {
    for (uint64_t seed : {uint64_t{1}, uint64_t{2}}) {
      RequestBody request;
      request.options = OptionsText(seed, 1);
      request.dataset = csv_bytes_;
      auto reply = client.Call(Tag::kEncode, "t", request);
      ASSERT_TRUE(reply.ok() && reply.value().ok());
      EXPECT_NE(reply.value().text.find("cold plan"), std::string::npos);
    }
  }
  auto stats = client.Call(Tag::kStats, "t", RequestBody{});
  ASSERT_TRUE(stats.ok() && stats.value().ok());
  EXPECT_NE(stats.value().body.find("cache_misses: 6"), std::string::npos)
      << stats.value().body;
  EXPECT_NE(stats.value().body.find("cache_evictions: 5"),
            std::string::npos)
      << stats.value().body;
  EXPECT_NE(stats.value().body.find("plans_resident: 1"), std::string::npos)
      << stats.value().body;
  EXPECT_EQ(daemon.Shutdown(), 0);
}

TEST_F(ServeEndToEndTest, ConcurrentTenantsStayIsolatedAndDeterministic) {
  ServeOptions options;
  options.socket_path = TempSocketPath("conc");
  options.num_threads = 4;
  TestServer daemon;
  ASSERT_TRUE(daemon.Start(options).ok());

  PiecewiseOptions transform;
  transform.policy = BreakpointPolicy::kChooseBP;
  const Dataset release = ExpectedRelease(9, transform);
  const std::string expected_csv = ToCsvString(release);
  const std::string expected_cols = SerializeCols(release);

  constexpr size_t kTenants = 4;
  constexpr size_t kRequests = 5;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> tenants;
  tenants.reserve(kTenants);
  for (size_t t = 0; t < kTenants; ++t) {
    tenants.emplace_back([&, t] {
      ServeClient client;
      if (!client.Connect(options.socket_path).ok()) {
        mismatches.fetch_add(100);
        return;
      }
      const std::string tenant = "tenant-" + std::to_string(t);
      for (size_t r = 0; r < kRequests; ++r) {
        RequestBody request;
        request.options = OptionsText(9, 1 + t % 3);
        request.dataset = t % 2 == 0 ? csv_bytes_ : cols_bytes_;
        const std::string& expected =
            t % 2 == 0 ? expected_csv : expected_cols;
        auto reply = client.Call(Tag::kEncode, tenant, request);
        if (!reply.ok() || !reply.value().ok() ||
            reply.value().body != expected) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : tenants) thread.join();
  EXPECT_EQ(mismatches.load(), 0);

  // Each tenant saw exactly its own requests; one fit per tenant.
  ServeClient client;
  ASSERT_TRUE(client.Connect(options.socket_path).ok());
  for (size_t t = 0; t < kTenants; ++t) {
    auto stats = client.Call(Tag::kStats, "tenant-" + std::to_string(t),
                             RequestBody{});
    ASSERT_TRUE(stats.ok() && stats.value().ok());
    EXPECT_NE(stats.value().body.find(
                  "requests_served: " + std::to_string(kRequests + 1)),
              std::string::npos)
        << stats.value().body;
    EXPECT_NE(stats.value().body.find("cache_misses: 1"), std::string::npos)
        << stats.value().body;
  }
  EXPECT_EQ(daemon.Shutdown(), 0);
}

/// Connects a raw socket for malformed-frame tests.
int RawConnect(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void SendAll(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + sent, bytes.size() - sent);
    if (n <= 0) return;
    sent += static_cast<size_t>(n);
  }
}

TEST_F(ServeEndToEndTest, MalformedFramesPoisonOnlyTheirConnection) {
  ServeOptions options;
  options.socket_path = TempSocketPath("bad");
  options.max_frame_bytes = 1u << 20;
  TestServer daemon;
  ASSERT_TRUE(daemon.Start(options).ok());

  // (a) CRC damage: flip a body byte, keep the length honest.
  {
    const int fd = RawConnect(options.socket_path);
    ASSERT_GE(fd, 0);
    std::string bytes = EncodeFrame(Tag::kStats, "t", "x");
    bytes[6] ^= 0x10;
    SendAll(fd, bytes);
    auto reply = RecvFrame(fd);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    auto body = ReplyBody::Decode(reply.value().payload);
    ASSERT_TRUE(body.ok());
    EXPECT_EQ(body.value().code, StatusCode::kDataLoss);
    ::close(fd);
  }
  // (b) Truncation: promise more bytes than ever arrive, then close.
  {
    const int fd = RawConnect(options.socket_path);
    ASSERT_GE(fd, 0);
    const std::string full = EncodeFrame(Tag::kStats, "t", "payload");
    SendAll(fd, full.substr(0, full.size() - 3));
    ::shutdown(fd, SHUT_WR);
    auto reply = RecvFrame(fd);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    auto body = ReplyBody::Decode(reply.value().payload);
    ASSERT_TRUE(body.ok());
    EXPECT_EQ(body.value().code, StatusCode::kDataLoss);
    ::close(fd);
  }
  // (c) Version from the future with a valid CRC.
  {
    const int fd = RawConnect(options.socket_path);
    ASSERT_GE(fd, 0);
    SendAll(fd, HandcraftedFrame(9, Tag::kStats, "t", ""));
    auto reply = RecvFrame(fd);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    auto body = ReplyBody::Decode(reply.value().payload);
    ASSERT_TRUE(body.ok());
    EXPECT_EQ(body.value().code, StatusCode::kInvalidArgument);
    ::close(fd);
  }
  // (d) Oversize length prefix is refused without allocation.
  {
    const int fd = RawConnect(options.socket_path);
    ASSERT_GE(fd, 0);
    SendAll(fd, std::string("\xff\xff\xff\x7f", 4));
    auto reply = RecvFrame(fd);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    auto body = ReplyBody::Decode(reply.value().payload);
    ASSERT_TRUE(body.ok());
    EXPECT_EQ(body.value().code, StatusCode::kInvalidArgument);
    ::close(fd);
  }

  // The daemon survived all four: a well-formed request still works.
  ServeClient client;
  ASSERT_TRUE(client.Connect(options.socket_path).ok());
  auto stats = client.Call(Tag::kStats, "t", RequestBody{});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats.value().ok());
  EXPECT_EQ(daemon.Shutdown(), 0);
}

TEST_F(ServeEndToEndTest, PeerVanishingMidReplyCostsOnlyItsConnection) {
  ServeOptions options;
  options.socket_path = TempSocketPath("gone");
  TestServer daemon;
  ASSERT_TRUE(daemon.Start(options).ok());

  // Clients that request an encode and disappear before reading the
  // reply: the daemon's send must surface as EPIPE on that connection
  // (MSG_NOSIGNAL), never raise a process-killing SIGPIPE.
  for (int round = 0; round < 3; ++round) {
    const int fd = RawConnect(options.socket_path);
    ASSERT_GE(fd, 0);
    RequestBody request;
    request.options = OptionsText(9, 1);
    request.dataset = csv_bytes_;
    SendAll(fd, EncodeFrame(Tag::kEncode, "t", request.Encode()));
    ::close(fd);  // gone before the reply
  }

  // The daemon survived every abandoned reply: a well-formed request
  // still round-trips.
  ServeClient client;
  ASSERT_TRUE(client.Connect(options.socket_path).ok());
  auto stats = client.Call(Tag::kStats, "t", RequestBody{});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats.value().ok());
  EXPECT_EQ(daemon.Shutdown(), 0);
}

TEST(ServeDrainTest, DrainAbortsAPeerThatStopsConsumingItsReply) {
  // A reply larger than the socket buffer blocks the worker's send; a
  // drain must abort that write instead of spinning on the connection
  // count forever (the pre-fix hang: RecvFrame honored the shutdown
  // flag but the reply write did not).
  Rng rng(13);
  const Dataset big = GenerateCovtypeLike(SmallCovtypeSpec(40000), rng);
  const std::string big_csv = ToCsvString(big);

  ServeOptions options;
  options.socket_path = TempSocketPath("stall");
  TestServer daemon;
  ASSERT_TRUE(daemon.Start(options).ok());

  const int fd = RawConnect(options.socket_path);
  ASSERT_GE(fd, 0);
  RequestBody request;
  request.options = "seed 9\npolicy bp\nthreads 1\n";
  request.dataset = big_csv;
  SendAll(fd, EncodeFrame(Tag::kEncode, "stall", request.Encode()));

  // Wait until the daemon has started writing the reply (bytes become
  // readable on our side), then never read a single one: its send
  // buffer fills and the worker blocks mid-reply.
  struct pollfd pfd = {fd, POLLIN, 0};
  ASSERT_GT(::poll(&pfd, 1, 30000), 0);

  // The drain aborts the stalled write; Shutdown() joins promptly
  // instead of hanging (a regression here times the test out).
  EXPECT_EQ(daemon.Shutdown(), 0);
  ::close(fd);
  EXPECT_FALSE(fault::FileExists(options.socket_path));
}

TEST_F(ServeEndToEndTest, SaveIsRefusedWithoutAConfiguredSaveDir) {
  ServeOptions options;
  options.socket_path = TempSocketPath("nosave");
  TestServer daemon;
  ASSERT_TRUE(daemon.Start(options).ok());
  ServeClient client;
  ASSERT_TRUE(client.Connect(options.socket_path).ok());

  RequestBody fit;
  fit.options = "seed 4\nsave plan.key\n";
  fit.dataset = csv_bytes_;
  auto reply = client.Call(Tag::kFit, "t", fit);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().code, StatusCode::kInvalidArgument);
  EXPECT_NE(reply.value().text.find("--save-dir"), std::string::npos)
      << reply.value().text;
  EXPECT_EQ(daemon.Shutdown(), 0);
}

TEST_F(ServeEndToEndTest, SaveIsConfinedToThePerTenantDirectory) {
  const std::string save_dir = testing::TempDir() + "popp_srv_saves_" +
                               std::to_string(::getpid());
  ServeOptions options;
  options.socket_path = TempSocketPath("save");
  options.save_dir = save_dir;
  TestServer daemon;
  ASSERT_TRUE(daemon.Start(options).ok());
  ServeClient client;
  ASSERT_TRUE(client.Connect(options.socket_path).ok());

  // Escape attempts are refused before any filesystem work.
  for (const char* target :
       {"/tmp/evil.key", "../escape.key", "a/../../b", "a//b", "."}) {
    RequestBody fit;
    fit.options = std::string("seed 4\nsave ") + target + "\n";
    fit.dataset = csv_bytes_;
    auto reply = client.Call(Tag::kFit, "alice", fit);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply.value().code, StatusCode::kInvalidArgument) << target;
  }
  // A tenant whose name cannot be a directory component may not save.
  {
    RequestBody fit;
    fit.options = "seed 4\nsave plan.key\n";
    fit.dataset = csv_bytes_;
    auto reply = client.Call(Tag::kFit, "../bob", fit);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply.value().code, StatusCode::kInvalidArgument);
  }
  // A relative target lands under <save_dir>/<tenant>/ holding the
  // exact canonical plan bytes.
  Rng rng(4);
  const TransformPlan plan =
      TransformPlan::Create(data_, PiecewiseOptions{}, rng, ExecPolicy{1});
  RequestBody fit;
  fit.options = "seed 4\nsave plans/run1.key\n";
  fit.dataset = csv_bytes_;
  auto reply = client.Call(Tag::kFit, "alice", fit);
  ASSERT_TRUE(reply.ok());
  ASSERT_TRUE(reply.value().ok()) << reply.value().text;
  auto saved = fault::ReadFileToString(save_dir + "/alice/plans/run1.key");
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  EXPECT_EQ(saved.value(), SerializePlan(plan));
  EXPECT_EQ(daemon.Shutdown(), 0);
  std::error_code ec;
  std::filesystem::remove_all(save_dir, ec);
}

TEST_F(ServeEndToEndTest, ThreadsZeroMeansAllHardwareThreadsCapped) {
  ServeOptions options;
  options.socket_path = TempSocketPath("hw");
  options.max_request_threads = 2;
  TestServer daemon;
  ASSERT_TRUE(daemon.Start(options).ok());
  ServeClient client;
  ASSERT_TRUE(client.Connect(options.socket_path).ok());

  // `threads 0` keeps the CLI meaning (all hardware threads, here capped
  // at the serve ceiling of 2) rather than silently clamping to 1; the
  // released bytes are identical either way by the §12 determinism.
  PiecewiseOptions transform;
  transform.policy = BreakpointPolicy::kChooseBP;
  RequestBody request;
  request.options = OptionsText(9, 0);
  request.dataset = csv_bytes_;
  auto reply = client.Call(Tag::kEncode, "t", request);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_TRUE(reply.value().ok()) << reply.value().text;
  EXPECT_EQ(reply.value().body, ExpectedEncode(9, transform));
  EXPECT_EQ(daemon.Shutdown(), 0);
}

TEST_F(ServeEndToEndTest, ProtocolShutdownDrainsAndRemovesSocket) {
  ServeOptions options;
  options.socket_path = TempSocketPath("down");
  TestServer daemon;
  ASSERT_TRUE(daemon.Start(options).ok());
  ASSERT_TRUE(fault::FileExists(options.socket_path));

  ServeClient client;
  ASSERT_TRUE(client.Connect(options.socket_path).ok());
  auto reply = client.Call(Tag::kShutdown, "", RequestBody{});
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(reply.value().ok());
  EXPECT_EQ(daemon.Shutdown(), 0);
  EXPECT_FALSE(fault::FileExists(options.socket_path));
}

TEST(ServeLifecycleTest, RefusesSocketAnotherDaemonListensOn) {
  ServeOptions options;
  options.socket_path = TempSocketPath("live");
  TestServer daemon;
  ASSERT_TRUE(daemon.Start(options).ok());

  Server second(options);
  const Status refused = second.Start();
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(refused.ToString().find(options.socket_path),
            std::string::npos);
  // The refusal maps onto the usage exit code, with the diagnostic on err.
  std::ostringstream out, err;
  EXPECT_EQ(RunServer(options, out, err), 2);
  EXPECT_NE(err.str().find("already listening"), std::string::npos);
  EXPECT_EQ(daemon.Shutdown(), 0);
}

TEST(ServeLifecycleTest, ReclaimsStaleDeadSocket) {
  const std::string path = TempSocketPath("stale");
  // Fake a crashed daemon: bind a socket, close the fd, leave the file.
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ASSERT_LT(path.size(), sizeof(addr.sun_path));
  ::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ::close(fd);
  ASSERT_TRUE(fault::FileExists(path));

  ServeOptions options;
  options.socket_path = path;
  TestServer daemon;
  EXPECT_TRUE(daemon.Start(options).ok());
  ServeClient client;
  EXPECT_TRUE(client.Connect(path).ok());
  EXPECT_EQ(daemon.Shutdown(), 0);
}

TEST(ServeLifecycleTest, RejectsOverlongSocketPath) {
  ServeOptions options;
  options.socket_path = testing::TempDir() + std::string(200, 'x');
  Server server(options);
  const Status status = server.Start();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(ServeLifecycleTest, IdleShutdownSoak) {
  // Start/drain cycles with zero or one connection: the pool must come up
  // and wind down cleanly every time, and the socket file must never
  // survive a drain.
  for (int round = 0; round < 12; ++round) {
    ServeOptions options;
    options.socket_path = TempSocketPath("soak");
    options.num_threads = 1 + round % 4;
    TestServer daemon;
    ASSERT_TRUE(daemon.Start(options).ok()) << "round " << round;
    if (round % 3 == 0) {
      ServeClient client;
      ASSERT_TRUE(client.Connect(options.socket_path).ok());
      auto reply = client.Call(Tag::kStats, "soak", RequestBody{});
      ASSERT_TRUE(reply.ok() && reply.value().ok());
    }
    EXPECT_EQ(daemon.Shutdown(), 0) << "round " << round;
    EXPECT_FALSE(fault::FileExists(options.socket_path))
        << "round " << round;
  }
}

TEST_F(ServeEndToEndTest, FitDecodeVerifyRiskRoundTrips) {
  ServeOptions options;
  options.socket_path = TempSocketPath("ops");
  TestServer daemon;
  ASSERT_TRUE(daemon.Start(options).ok());
  ServeClient client;
  ASSERT_TRUE(client.Connect(options.socket_path).ok());

  // fit: the reply body is the canonical plan document.
  Rng rng(4);
  const TransformPlan plan =
      TransformPlan::Create(data_, PiecewiseOptions{}, rng, ExecPolicy{1});
  RequestBody fit;
  fit.options = "seed 4\n";
  fit.dataset = csv_bytes_;
  auto fitted = client.Call(Tag::kFit, "ops", fit);
  ASSERT_TRUE(fitted.ok() && fitted.value().ok());
  EXPECT_EQ(fitted.value().body, SerializePlan(plan));

  // verify: the daemon runs the full no-outcome-change check.
  RequestBody verify;
  verify.options = "seed 4\n";
  verify.dataset = csv_bytes_;
  auto verified = client.Call(Tag::kVerify, "ops", verify);
  ASSERT_TRUE(verified.ok() && verified.value().ok());
  EXPECT_NE(verified.value().text.find("VERIFIED"), std::string::npos)
      << verified.value().text;

  // risk: a tiny report renders.
  RequestBody risk;
  risk.options = "seed 4\ntrials 3\n";
  risk.dataset = csv_bytes_;
  auto report = client.Call(Tag::kRisk, "ops", risk);
  ASSERT_TRUE(report.ok() && report.value().ok());
  EXPECT_FALSE(report.value().body.empty());

  // Unknown request option → clean kInvalidArgument reply, daemon alive.
  RequestBody bad;
  bad.options = "frobnicate 1\n";
  bad.dataset = csv_bytes_;
  auto rejected = client.Call(Tag::kEncode, "ops", bad);
  ASSERT_TRUE(rejected.ok());
  EXPECT_EQ(rejected.value().code, StatusCode::kInvalidArgument);

  EXPECT_EQ(daemon.Shutdown(), 0);
}

// ---------------------------------------------------------------------------
// Admission control and deadlines (the §17 overload contract).

class ServeAdmissionTest : public ServeEndToEndTest {
 protected:
  /// Polls the `health` op until its body reports `inflight <want>` (the
  /// op bypasses admission, so it answers even when every slot is taken).
  void WaitForInflight(ServeClient& client, size_t want) {
    // Anchor the match at a line start: the stats body also carries a
    // "max-inflight N" line whose tail is the same substring.
    const std::string needle = "inflight " + std::to_string(want) + "\n";
    for (int spin = 0; spin < 2000; ++spin) {
      auto health = client.Call(Tag::kHealth, "probe", RequestBody{});
      ASSERT_TRUE(health.ok()) << health.status().ToString();
      ASSERT_TRUE(health.value().ok()) << health.value().text;
      const std::string& body = health.value().body;
      if (body.rfind(needle, 0) == 0 ||
          body.find("\n" + needle) != std::string::npos) {
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    FAIL() << "daemon never reported inflight " << want;
  }

  /// Joins the guarded thread on scope exit, so a fatal assertion in the
  /// test body cannot destroy a still-running helper thread (which would
  /// terminate the whole process).
  struct ScopedJoin {
    std::thread& thread;
    ~ScopedJoin() {
      if (thread.joinable()) thread.join();
    }
  };

  RequestBody EncodeRequest(const std::string& extra_options = "") {
    RequestBody request;
    request.options = OptionsText(9, 1) + extra_options;
    request.dataset = csv_bytes_;
    return request;
  }
};

TEST_F(ServeAdmissionTest, HealthBypassesAdmissionAndReportsCounters) {
  ServeOptions options;
  options.socket_path = TempSocketPath("health");
  options.max_inflight = 3;
  options.max_queue = 5;
  options.per_tenant_inflight = 2;
  TestServer daemon;
  ASSERT_TRUE(daemon.Start(options).ok());
  ServeClient client;
  ASSERT_TRUE(client.Connect(options.socket_path).ok());

  auto health = client.Call(Tag::kHealth, "anyone", RequestBody{});
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  ASSERT_TRUE(health.value().ok()) << health.value().text;
  EXPECT_EQ(health.value().text, "healthy");
  const std::string& body = health.value().body;
  EXPECT_NE(body.find("inflight 0\n"), std::string::npos) << body;
  EXPECT_NE(body.find("max-inflight 3\n"), std::string::npos) << body;
  EXPECT_NE(body.find("max-queue 5\n"), std::string::npos) << body;
  EXPECT_NE(body.find("tenant-cap 2\n"), std::string::npos) << body;
  EXPECT_NE(body.find("rejected-frames "), std::string::npos) << body;
  EXPECT_NE(body.find("connections "), std::string::npos) << body;
  EXPECT_EQ(daemon.Shutdown(), 0);
}

TEST_F(ServeAdmissionTest, ExpiredDeadlineIsShedBeforeAnyWork) {
  ServeOptions options;
  options.socket_path = TempSocketPath("dl0");
  TestServer daemon;
  ASSERT_TRUE(daemon.Start(options).ok());
  ServeClient client;
  ASSERT_TRUE(client.Connect(options.socket_path).ok());

  auto reply = client.Call(Tag::kEncode, "t", EncodeRequest("deadline-ms 0\n"));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply.value().code, StatusCode::kUnavailable);
  EXPECT_NE(reply.value().text.find("deadline exceeded"), std::string::npos)
      << reply.value().text;
  // The shed was an answer, not a hang: the connection and the daemon
  // both still serve.
  auto after = client.Call(Tag::kEncode, "t", EncodeRequest());
  ASSERT_TRUE(after.ok() && after.value().ok());
  EXPECT_EQ(daemon.Shutdown(), 0);
}

TEST_F(ServeAdmissionTest, QueueFullShedsWithRetryAfterHint) {
  const std::string save_dir = testing::TempDir() + "popp_adm_save_" +
                               std::to_string(::getpid());
  ServeOptions options;
  options.socket_path = TempSocketPath("full");
  options.num_threads = 2;
  options.max_inflight = 1;
  options.max_queue = 0;  // no queue: overflow sheds immediately
  options.save_dir = save_dir;
  TestServer daemon;
  ASSERT_TRUE(daemon.Start(options).ok());

  // A fit-with-save stalls 1500 ms inside the save (an injected hang on
  // the first fault-layer op), pinning the single execution slot.
  fault::ScopedFaultInjection injection(
      fault::FaultSchedule::DelayAt(0, 1500));
  std::thread blocked([&] {
    ServeClient slow;
    ASSERT_TRUE(slow.Connect(options.socket_path).ok());
    RequestBody fit;
    fit.options = "seed 4\nsave slow.key\n";
    fit.dataset = csv_bytes_;
    auto reply = slow.Call(Tag::kFit, "t", fit);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_TRUE(reply.value().ok()) << reply.value().text;
  });
  ScopedJoin join_guard{blocked};

  ServeClient client;
  ASSERT_TRUE(client.Connect(options.socket_path).ok());
  WaitForInflight(client, 1);
  auto shed = client.Call(Tag::kEncode, "t", EncodeRequest());
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  EXPECT_EQ(shed.value().code, StatusCode::kUnavailable);
  EXPECT_NE(shed.value().text.find("overloaded"), std::string::npos)
      << shed.value().text;
  EXPECT_NE(shed.value().text.find("retry-after-ms"), std::string::npos)
      << shed.value().text;
  blocked.join();

  // The slot came back; the same request now executes.
  WaitForInflight(client, 0);
  auto after = client.Call(Tag::kEncode, "t", EncodeRequest());
  ASSERT_TRUE(after.ok() && after.value().ok()) << after.value().text;
  EXPECT_EQ(daemon.Shutdown(), 0);
  std::error_code ec;
  std::filesystem::remove_all(save_dir, ec);
}

TEST_F(ServeAdmissionTest, PerTenantCapLeavesOtherTenantsServed) {
  const std::string save_dir = testing::TempDir() + "popp_adm_cap_" +
                               std::to_string(::getpid());
  ServeOptions options;
  options.socket_path = TempSocketPath("cap");
  options.num_threads = 3;
  options.max_inflight = 2;
  options.max_queue = 0;
  options.per_tenant_inflight = 1;
  options.save_dir = save_dir;
  TestServer daemon;
  ASSERT_TRUE(daemon.Start(options).ok());

  fault::ScopedFaultInjection injection(
      fault::FaultSchedule::DelayAt(0, 1500));
  std::thread greedy([&] {
    ServeClient slow;
    ASSERT_TRUE(slow.Connect(options.socket_path).ok());
    RequestBody fit;
    fit.options = "seed 4\nsave slow.key\n";
    fit.dataset = csv_bytes_;
    auto reply = slow.Call(Tag::kFit, "greedy", fit);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_TRUE(reply.value().ok()) << reply.value().text;
  });
  ScopedJoin join_guard{greedy};

  ServeClient client;
  ASSERT_TRUE(client.Connect(options.socket_path).ok());
  WaitForInflight(client, 1);
  // The greedy tenant is at its cap: its second request sheds even though
  // a global slot is free...
  auto capped = client.Call(Tag::kEncode, "greedy", EncodeRequest());
  ASSERT_TRUE(capped.ok());
  EXPECT_EQ(capped.value().code, StatusCode::kUnavailable);
  EXPECT_NE(capped.value().text.find("overloaded"), std::string::npos)
      << capped.value().text;
  // ...while another tenant takes that free slot immediately.
  ServeClient other;
  ASSERT_TRUE(other.Connect(options.socket_path).ok());
  auto served = other.Call(Tag::kEncode, "other", EncodeRequest());
  ASSERT_TRUE(served.ok());
  EXPECT_TRUE(served.value().ok()) << served.value().text;
  greedy.join();
  EXPECT_EQ(daemon.Shutdown(), 0);
  std::error_code ec;
  std::filesystem::remove_all(save_dir, ec);
}

TEST_F(ServeAdmissionTest, DeadlineExpiryMidRequestAnswersInsteadOfHanging) {
  const std::string save_dir = testing::TempDir() + "popp_adm_mid_" +
                               std::to_string(::getpid());
  ServeOptions options;
  options.socket_path = TempSocketPath("mid");
  options.save_dir = save_dir;
  TestServer daemon;
  ASSERT_TRUE(daemon.Start(options).ok());
  ServeClient client;
  ASSERT_TRUE(client.Connect(options.socket_path).ok());

  // The save stalls 400 ms but the request's deadline is 120 ms: the
  // request is admitted (the deadline is live on arrival) and expires
  // mid-flight, so a phase-boundary check must answer kUnavailable.
  fault::ScopedFaultInjection injection(
      fault::FaultSchedule::DelayAt(0, 400));
  RequestBody fit;
  fit.options = "seed 4\nsave mid.key\ndeadline-ms 120\n";
  fit.dataset = csv_bytes_;
  auto reply = client.Call(Tag::kFit, "alice", fit);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply.value().code, StatusCode::kUnavailable);
  EXPECT_NE(reply.value().text.find("deadline exceeded"), std::string::npos)
      << reply.value().text;

  // The abandoned save never tears: the target holds nothing or the
  // exact canonical plan document.
  Rng rng(4);
  const TransformPlan plan =
      TransformPlan::Create(data_, PiecewiseOptions{}, rng, ExecPolicy{1});
  auto saved = fault::ReadFileToString(save_dir + "/alice/mid.key");
  if (saved.ok()) {
    EXPECT_EQ(saved.value(), SerializePlan(plan));
  }

  // The daemon is intact: the identical request without a deadline
  // converges to the canonical plan bytes.
  RequestBody retry;
  retry.options = "seed 4\nsave mid.key\n";
  retry.dataset = csv_bytes_;
  auto again = client.Call(Tag::kFit, "alice", retry);
  ASSERT_TRUE(again.ok() && again.value().ok()) << again.value().text;
  EXPECT_EQ(again.value().body, SerializePlan(plan));
  auto final_saved = fault::ReadFileToString(save_dir + "/alice/mid.key");
  ASSERT_TRUE(final_saved.ok());
  EXPECT_EQ(final_saved.value(), SerializePlan(plan));
  EXPECT_EQ(daemon.Shutdown(), 0);
  std::error_code ec;
  std::filesystem::remove_all(save_dir, ec);
}

TEST_F(ServeAdmissionTest, ClientRetryLoopRecoversFromShedding) {
  const std::string save_dir = testing::TempDir() + "popp_adm_retry_" +
                               std::to_string(::getpid());
  ServeOptions options;
  options.socket_path = TempSocketPath("retry");
  options.num_threads = 2;
  options.max_inflight = 1;
  options.max_queue = 0;
  options.save_dir = save_dir;
  TestServer daemon;
  ASSERT_TRUE(daemon.Start(options).ok());

  fault::ScopedFaultInjection injection(
      fault::FaultSchedule::DelayAt(0, 1000));
  std::thread blocked([&] {
    ServeClient slow;
    ASSERT_TRUE(slow.Connect(options.socket_path).ok());
    RequestBody fit;
    fit.options = "seed 4\nsave slow.key\n";
    fit.dataset = csv_bytes_;
    auto reply = slow.Call(Tag::kFit, "t", fit);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_TRUE(reply.value().ok()) << reply.value().text;
  });
  ScopedJoin join_guard{blocked};

  ServeClient client;
  ASSERT_TRUE(client.Connect(options.socket_path).ok());
  WaitForInflight(client, 1);
  // A plain call sheds right now...
  auto shed = client.Call(Tag::kEncode, "t", EncodeRequest());
  ASSERT_TRUE(shed.ok());
  ASSERT_EQ(shed.value().code, StatusCode::kUnavailable);
  // ...but the retry loop honors the retry-after hint and converges to
  // the exact expected bytes once the slot frees.
  PiecewiseOptions transform;
  transform.policy = BreakpointPolicy::kChooseBP;
  RetryOptions retry;
  retry.max_retries = 20;
  retry.seed = 7;
  retry.backoff.base_ms = 50;
  retry.backoff.cap_ms = 200;
  auto reply = client.CallWithRetry(Tag::kEncode, "t", EncodeRequest(), retry);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_TRUE(reply.value().ok()) << reply.value().text;
  EXPECT_EQ(reply.value().body, ExpectedEncode(9, transform));
  blocked.join();
  EXPECT_EQ(daemon.Shutdown(), 0);
  std::error_code ec;
  std::filesystem::remove_all(save_dir, ec);
}

}  // namespace
}  // namespace popp::serve
