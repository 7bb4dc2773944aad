// End-to-end tests for the TCP serving front-end: loopback parity with
// the in-process QueryService for all four query kinds, pipelining,
// connection limits, hostile/malformed bytes (the server must never
// crash or hang, mirroring the protocol corpus), graceful
// shutdown-with-drain, and snapshot swaps under live remote load
// (RemoteSwapTest runs under TSan via tools/check_tsan.sh).
//
// Every test is parameterized over both transports (threads / epoll):
// they implement one documented contract (docs/PROTOCOL.md §11), so
// every behavioral claim here must hold for either. The reactor's
// transport-specific hostile-client suite is tests/net_hostile_test.cc.
#include "vsim/net/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "vsim/data/dataset.h"
#include "vsim/net/client.h"
#include "vsim/net/protocol.h"
#include "vsim/net/socket_util.h"
#include "vsim/service/db_snapshot.h"

namespace vsim::net {
namespace {

class NetServerTest : public ::testing::TestWithParam<Transport> {
 protected:
  static void SetUpTestSuite() {
    const Dataset ds = MakeCarDataset(30, 99);
    ExtractionOptions opt;
    opt.extract_histograms = false;
    opt.cover_resolution = 10;
    opt.num_covers = 5;
    StatusOr<CadDatabase> db = CadDatabase::FromDataset(ds, opt, 0);
    ASSERT_TRUE(db.ok());
    db_ = new CadDatabase(std::move(db).value());
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  // A service over an owning snapshot of a *copy* of the fixture
  // database, so swap tests can publish further copies.
  static std::unique_ptr<QueryService> MakeService(
      QueryServiceOptions options = {}) {
    return std::make_unique<QueryService>(
        DbSnapshot::Create(CadDatabase(*db_), 0), options);
  }

  // Server options with the transport under test applied.
  ServerOptions Opts(ServerOptions options = {}) const {
    options.transport = GetParam();
    return options;
  }

  static CadDatabase* db_;
};

CadDatabase* NetServerTest::db_ = nullptr;

// A helper bundling service + started server + one connected client.
struct Loopback {
  std::unique_ptr<QueryService> service;
  std::unique_ptr<Server> server;

  explicit Loopback(std::unique_ptr<QueryService> svc,
                    ServerOptions options = {}) {
    service = std::move(svc);
    server = std::make_unique<Server>(service.get(), options);
    const Status started = server->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
  }

  Client Connect() {
    StatusOr<Client> client = Client::Connect("127.0.0.1", server->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }
};

// The tentpole acceptance claim: every query kind answered over the
// loopback socket is byte-identical to the in-process Execute on the
// same snapshot -- results, cost accounting, and generation.
TEST_P(NetServerTest, LoopbackParityForAllQueryKinds) {
  // Cache off: a warm cache returns zero-cost hits, which would hide a
  // wire codec that drops the cost fields.
  QueryServiceOptions sopts;
  sopts.cache_bytes = 0;
  Loopback loop(MakeService(sopts), Opts());
  Client client = loop.Connect();

  const double eps =
      loop.service->snapshot()->engine()
          .Knn(QueryStrategy::kVectorSetScan, 0, 5)
          .back()
          .distance;
  std::vector<ServiceRequest> requests;
  {
    ServiceRequest req;
    req.kind = QueryKind::kKnn;
    req.object_id = 3;
    req.options.k = 5;
    requests.push_back(req);
    req.kind = QueryKind::kRange;
    req.options.eps = eps * 1.5;
    requests.push_back(req);
    req.kind = QueryKind::kInvariantKnn;
    req.options.k = 4;
    requests.push_back(req);
    req.kind = QueryKind::kInvariantRange;
    req.options.eps = eps * 2;
    requests.push_back(req);
    // External-representation query (the --mesh path): same fields the
    // wire carries, no stored id.
    req.kind = QueryKind::kKnn;
    req.object_id = -1;
    req.query = db_->object(7);
    req.options.k = 5;
    requests.push_back(req);
  }

  for (const ServiceRequest& req : requests) {
    StatusOr<ServiceResponse> local = loop.service->Execute(req);
    ASSERT_TRUE(local.ok()) << local.status().ToString();
    StatusOr<ServiceResponse> remote = client.Execute(req);
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    EXPECT_EQ(remote->neighbors, local->neighbors)
        << "kind " << static_cast<int>(req.kind);
    EXPECT_EQ(remote->ids, local->ids);
    EXPECT_EQ(remote->generation, local->generation);
    EXPECT_EQ(remote->cost.io.page_accesses(),
              local->cost.io.page_accesses());
    EXPECT_EQ(remote->cost.candidates_refined,
              local->cost.candidates_refined);
  }
}

TEST_P(NetServerTest, PipelinedRequestsCompleteInOrder) {
  Loopback loop(MakeService(), Opts());
  Client client = loop.Connect();

  constexpr int kWindow = 24;
  std::vector<uint64_t> sent_ids;
  for (int i = 0; i < kWindow; ++i) {
    ServiceRequest req;
    req.object_id = i % static_cast<int>(db_->size());
    req.options.k = 3;
    uint64_t id = 0;
    ASSERT_TRUE(client.Send(req, &id).ok());
    sent_ids.push_back(id);
  }
  for (int i = 0; i < kWindow; ++i) {
    uint64_t id = 0;
    StatusOr<ServiceResponse> response = client.Receive(&id);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(id, sent_ids[i]) << "completion out of order";
    EXPECT_EQ(response->neighbors.size(), 3u);
  }
}

TEST_P(NetServerTest, ChunkedResponsesReassembleAcrossTinyFrames) {
  // Force multi-frame streaming: 2 results per frame, a range query
  // wide enough to return many ids.
  ServerOptions options;
  options.results_per_frame = 2;
  Loopback loop(MakeService(), Opts(options));
  Client client = loop.Connect();

  ServiceRequest req;
  req.kind = QueryKind::kRange;
  req.object_id = 0;
  req.options.eps = 1e9;  // everything
  StatusOr<ServiceResponse> local = loop.service->Execute(req);
  ASSERT_TRUE(local.ok());
  ASSERT_EQ(local->ids.size(), db_->size());
  StatusOr<ServiceResponse> remote = client.Execute(req);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  EXPECT_EQ(remote->ids, local->ids);
}

TEST_P(NetServerTest, ServiceErrorsPropagateAsWireStatuses) {
  Loopback loop(MakeService(), Opts());
  Client client = loop.Connect();

  // Validation error: stored id out of range for the snapshot.
  ServiceRequest req;
  req.object_id = 1 << 20;
  StatusOr<ServiceResponse> response = client.Execute(req);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kOutOfRange);

  // The connection survives a per-request error.
  req.object_id = 1;
  response = client.Execute(req);
  EXPECT_TRUE(response.ok()) << response.status().ToString();

  // Deadline already expired when a worker picks it up.
  req.options.timeout_seconds = 1e-9;
  bool saw_deadline = false;
  for (int i = 0; i < 50 && !saw_deadline; ++i) {
    response = client.Execute(req);
    if (!response.ok()) {
      EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded);
      saw_deadline = true;
    }
  }
  EXPECT_TRUE(saw_deadline);
}

TEST_P(NetServerTest, ConnectionLimitRejectsWithUnavailable) {
  ServerOptions options;
  options.max_connections = 1;
  Loopback loop(MakeService(), Opts(options));
  Client first = loop.Connect();
  ServiceRequest req;
  req.object_id = 0;
  ASSERT_TRUE(first.Execute(req).ok());

  Client second = loop.Connect();
  StatusOr<ServiceResponse> rejected = second.Execute(req);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);

  // The first connection keeps working; after it closes, a new one is
  // admitted (the acceptor reaps finished connections).
  ASSERT_TRUE(first.Execute(req).ok());
  first.Close();
  bool admitted = false;
  for (int attempt = 0; attempt < 100 && !admitted; ++attempt) {
    Client retry = loop.Connect();
    admitted = retry.Execute(req).ok();
    if (!admitted) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_TRUE(admitted);
  EXPECT_GE(loop.server->stats().connections_rejected, 1u);
}

TEST_P(NetServerTest, InfoReportsSnapshotAndExtractionOptions) {
  Loopback loop(MakeService(), Opts());
  Client client = loop.Connect();
  StatusOr<ServerInfo> info = client.Info();
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->object_count, db_->size());
  EXPECT_EQ(info->generation, 0u);
  EXPECT_EQ(info->num_covers, db_->options().num_covers);
  EXPECT_EQ(info->cover_resolution, db_->options().cover_resolution);
  EXPECT_EQ(info->extract_histograms, db_->options().extract_histograms);
}

// Hostile peers: truncated frames, bit-flipped frames, raw garbage and
// protocol misuse must never crash or wedge the server. After the whole
// corpus, a well-behaved client still gets correct answers.
TEST_P(NetServerTest, MalformedFramesNeverCrashOrHangTheServer) {
  Loopback loop(MakeService(), Opts());

  ServiceRequest valid_req;
  valid_req.object_id = 2;
  valid_req.options.k = 3;
  std::string valid_frame;
  AppendRequestFrame(1, valid_req, &valid_frame);

  auto send_raw = [&](const std::string& bytes) {
    StatusOr<ScopedFd> fd = ConnectTcp("127.0.0.1", loop.server->port());
    ASSERT_TRUE(fd.ok());
    (void)WriteAll(fd->get(), bytes.data(), bytes.size());
    // Closing mid-frame exercises the EOF-inside-payload path too.
  };

  // Truncations at stride through the frame, including header cuts.
  for (size_t len = 0; len < valid_frame.size(); len += 3) {
    send_raw(valid_frame.substr(0, len));
  }
  // Bit flips across the whole frame (header corruption, enum bytes,
  // length fields, payload doubles).
  for (size_t pos = 0; pos < valid_frame.size(); pos += 2) {
    std::string mutated = valid_frame;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x41);
    send_raw(mutated);
  }
  // Raw garbage that never was a frame.
  send_raw(std::string(64, '\xff'));
  send_raw("GET / HTTP/1.1\r\n\r\n");
  // A server->client frame type from a client is protocol misuse.
  {
    std::string status_frame;
    AppendStatusFrame(9, Status::Internal("i am the server now"),
                      &status_frame);
    send_raw(status_frame);
  }

  // A malformed *payload* on a healthy connection only fails that one
  // request; the connection then serves valid requests.
  {
    Client client = loop.Connect();
    std::string bad_payload_frame;
    {
      // kind byte 200: framing is fine, payload decode fails.
      std::string payload(valid_frame.begin() + kFrameHeaderBytes,
                          valid_frame.end());
      payload[0] = static_cast<char>(200);
      AppendFrame(FrameType::kRequest, kFlagFinal, 77, payload,
                  &bad_payload_frame);
    }
    // Reach into the client's socket via a parallel raw connection
    // instead: simpler -- send bad then good on one raw socket.
    StatusOr<ScopedFd> fd = ConnectTcp("127.0.0.1", loop.server->port());
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(WriteAll(fd->get(), bad_payload_frame.data(),
                         bad_payload_frame.size())
                    .ok());
    ASSERT_TRUE(
        WriteAll(fd->get(), valid_frame.data(), valid_frame.size()).ok());
    // First completion: the decode error for request 77.
    FrameHeader header;
    std::string payload;
    bool clean_eof = false;
    ASSERT_TRUE(
        ReadFrame(fd->get(), &header, &payload, &clean_eof).ok());
    ASSERT_FALSE(clean_eof);
    EXPECT_EQ(header.type, FrameType::kStatus);
    EXPECT_EQ(header.request_id, 77u);
    // Second completion: the valid request's response.
    ASSERT_TRUE(
        ReadFrame(fd->get(), &header, &payload, &clean_eof).ok());
    ASSERT_FALSE(clean_eof);
    EXPECT_EQ(header.type, FrameType::kResponse);
    EXPECT_EQ(header.request_id, 1u);
  }

  // The server survived the whole corpus and still answers correctly.
  Client client = loop.Connect();
  StatusOr<ServiceResponse> local = loop.service->Execute(valid_req);
  StatusOr<ServiceResponse> remote = client.Execute(valid_req);
  ASSERT_TRUE(local.ok());
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  EXPECT_EQ(remote->neighbors, local->neighbors);
  EXPECT_GT(loop.server->stats().protocol_errors, 0u);
}

TEST_P(NetServerTest, GracefulStopDrainsInFlightRequests) {
  // Slow the service down (simulated I/O wait) so requests are still in
  // flight when Stop() lands.
  QueryServiceOptions sopts;
  sopts.num_threads = 2;
  sopts.cache_bytes = 0;
  sopts.simulate_io_wait = true;
  sopts.io_params.seconds_per_page_access = 2e-4;
  Loopback loop(MakeService(sopts), Opts());
  Client client = loop.Connect();

  constexpr int kInFlight = 12;
  for (int i = 0; i < kInFlight; ++i) {
    ServiceRequest req;
    req.object_id = i % static_cast<int>(db_->size());
    req.options.k = 5;
    uint64_t id = 0;
    ASSERT_TRUE(client.Send(req, &id).ok());
  }
  // Wait until the server has *accepted* every request -- frames still
  // in the kernel buffer at Stop() are legitimately dropped by the
  // read-side shutdown; the drain guarantee covers admitted work.
  while (loop.server->stats().requests_received <
         static_cast<uint64_t>(kInFlight)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Stop while the pipeline is full: every accepted request must still
  // complete and reach the client before the socket closes.
  loop.server->Stop();
  for (int i = 0; i < kInFlight; ++i) {
    StatusOr<ServiceResponse> response = client.Receive();
    ASSERT_TRUE(response.ok())
        << "request " << i << ": " << response.status().ToString();
  }
  // After the drain, the server is gone: the next receive sees EOF.
  StatusOr<ServiceResponse> after = client.Receive();
  EXPECT_FALSE(after.ok());
}

// Snapshot swaps under live remote load: generation-tagged responses
// stay consistent, no request fails, and later requests observe the new
// generation. Named RemoteSwapTest so tools/check_tsan.sh picks it up.
class RemoteSwapTest : public NetServerTest {};

TEST_P(RemoteSwapTest, SwapUnderRemoteLoad) {
  Loopback loop(MakeService(), Opts());
  constexpr int kClients = 4;
  constexpr int kSwaps = 3;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> failures{0};
  std::atomic<uint64_t> served{0};
  std::atomic<uint64_t> regressions{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c]() {
      StatusOr<Client> client =
          Client::Connect("127.0.0.1", loop.server->port());
      if (!client.ok()) {
        failures.fetch_add(1, std::memory_order_seq_cst);
        return;
      }
      uint64_t last_generation = 0;
      int q = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        ServiceRequest req;
        req.object_id = (c * 13 + ++q) % 30;
        req.options.k = 3;
        StatusOr<ServiceResponse> response = client->Execute(req);
        if (!response.ok()) {
          failures.fetch_add(1, std::memory_order_seq_cst);
          continue;
        }
        served.fetch_add(1, std::memory_order_seq_cst);
        // In-order pipelining on one connection: generations observed
        // by a single client can only move forward.
        if (response->generation < last_generation) {
          regressions.fetch_add(1, std::memory_order_seq_cst);
        }
        last_generation = response->generation;
      }
    });
  }

  for (uint64_t gen = 1; gen <= kSwaps; ++gen) {
    while (served.load(std::memory_order_seq_cst) < gen * 20) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const Status swapped = loop.service->SwapSnapshot(
        DbSnapshot::Create(CadDatabase(*db_), gen));
    ASSERT_TRUE(swapped.ok()) << swapped.ToString();
  }
  while (served.load(std::memory_order_seq_cst) < (kSwaps + 1) * 20) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_seq_cst);
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(failures.load(std::memory_order_seq_cst), 0u);
  EXPECT_EQ(regressions.load(std::memory_order_seq_cst), 0u);
  EXPECT_EQ(loop.service->generation(), static_cast<uint64_t>(kSwaps));

  // A fresh request observes the final generation.
  Client client = loop.Connect();
  ServiceRequest req;
  req.object_id = 0;
  StatusOr<ServiceResponse> response = client.Execute(req);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->generation, static_cast<uint64_t>(kSwaps));
}

// The observability acceptance claim: after one remote 10-NN query, a
// `vsim stats`-style scrape over the same wire fully attributes it --
// the metrics text shows the request and its paper counters, and the
// flight recorder returns the request's trace.
TEST_P(NetServerTest, StatsScrapeAttributesRemoteQuery) {
  QueryServiceOptions sopts;
  sopts.cache_bytes = 0;
  Loopback loop(MakeService(sopts), Opts());
  Client client = loop.Connect();

  // The server advertises the stats frames as a feature flag.
  StatusOr<ServerInfo> info = client.Info();
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_NE(info->feature_flags & kFeatureStats, 0u);

  const int k = 10;
  ServiceRequest req;
  req.object_id = 4;
  req.options.k = k;
  StatusOr<ServiceResponse> response = client.Execute(req);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->neighbors.size(), static_cast<size_t>(k));

  StatusOr<StatsResponse> stats = client.Stats(/*max_traces=*/8);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  // Metrics: the whole stack is visible in one scrape -- service
  // counters, the per-strategy breakdown, and the server's own
  // vsim_net_* connection counters (collector-fed).
  const std::string& text = stats->metrics_text;
  EXPECT_NE(text.find("vsim_requests_completed_total 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("vsim_queries_total{strategy=\"filter\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE vsim_request_latency_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("vsim_net_requests_received_total"),
            std::string::npos);

  // Trace: the query's span came back over the wire with the paper's
  // pipeline ordering intact.
  ASSERT_FALSE(stats->traces.empty());
  const obs::QueryTrace& t = stats->traces.front();
  EXPECT_EQ(t.kind, static_cast<uint8_t>(QueryKind::kKnn));
  EXPECT_EQ(t.k, k);
  EXPECT_EQ(t.status_code, 0);
  EXPECT_EQ(t.generation, response->generation);
  // Counters count groups of equal vector sets (docs/OBSERVABILITY.md):
  // one refinement can certify a whole answer.
  EXPECT_GE(t.filter_hits, t.candidates_refined);
  EXPECT_GE(t.candidates_refined, t.hungarian_invocations);
  EXPECT_GE(t.candidates_refined, 1u);
  EXPECT_GT(t.total_seconds, 0.0);

  // The connection survives a stats exchange: a follow-up query works.
  StatusOr<ServiceResponse> again = client.Execute(req);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(client.ok());
}

// An empty recorder and the slow_only filter behave over the wire.
TEST_P(NetServerTest, StatsSlowOnlyFiltersFastQueries) {
  QueryServiceOptions sopts;
  sopts.cache_bytes = 0;
  sopts.slow_trace_seconds = 3600.0;  // nothing qualifies as slow
  Loopback loop(MakeService(sopts), Opts());
  Client client = loop.Connect();
  ServiceRequest req;
  req.object_id = 0;
  ASSERT_TRUE(client.Execute(req).ok());
  StatusOr<StatsResponse> slow = client.Stats(8, /*slow_only=*/true);
  ASSERT_TRUE(slow.ok()) << slow.status().ToString();
  EXPECT_TRUE(slow->traces.empty());
  StatusOr<StatsResponse> all = client.Stats(8, /*slow_only=*/false);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->traces.size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Transports, NetServerTest,
    ::testing::Values(Transport::kThreads, Transport::kEpoll),
    [](const ::testing::TestParamInfo<Transport>& info) {
      return std::string(TransportName(info.param));
    });
INSTANTIATE_TEST_SUITE_P(
    Transports, RemoteSwapTest,
    ::testing::Values(Transport::kThreads, Transport::kEpoll),
    [](const ::testing::TestParamInfo<Transport>& info) {
      return std::string(TransportName(info.param));
    });

}  // namespace
}  // namespace vsim::net
