// Hostile-client suite for the serving transport (docs/PROTOCOL.md
// §11): adversarial *connection behavior*, complementing the malformed
// *byte* corpus in tests/net_server_test.cc. A slow-loris peer
// dribbling one byte at a time must not starve well-behaved clients; a
// peer that vanishes mid-frame must cost nothing but its own
// connection; a pipelined burst past the service's admission queue must
// come back as in-order kUnavailable completions, not a wedged or
// killed connection; a tiny pipeline window must throttle the reader
// (backpressure) without reordering or dropping responses; and a header
// announcing an absurd payload length must be refused before any
// allocation.
//
// The suite is part of the TSan sweep (tools/check_tsan.sh): the
// reactor's worker-callback / event-loop handoff is exactly the kind of
// code TSan exists for.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "vsim/data/dataset.h"
#include "vsim/net/client.h"
#include "vsim/net/protocol.h"
#include "vsim/net/server.h"
#include "vsim/net/socket_util.h"
#include "vsim/service/db_snapshot.h"

namespace vsim::net {
namespace {

class NetHostileTest : public ::testing::Test {
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

  static std::unique_ptr<QueryService> MakeService(
      QueryServiceOptions options = {}) {
    return std::make_unique<QueryService>(
        DbSnapshot::Create(CadDatabase(*db_), 0), options);
  }

  static CadDatabase* db_;
};

CadDatabase* NetHostileTest::db_ = nullptr;

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

  StatusOr<ScopedFd> ConnectRaw() {
    return ConnectTcp("127.0.0.1", server->port());
  }
};

std::string EncodedRequest(uint64_t request_id, int object_id, int k = 3) {
  ServiceRequest req;
  req.object_id = object_id;
  req.options.k = k;
  std::string frame;
  AppendRequestFrame(request_id, req, &frame);
  return frame;
}

// A slow-loris peer trickles a valid request one byte at a time. The
// server must keep answering well-behaved clients at full speed the
// whole time (the dribbler may pin at most its own connection), and
// when the frame finally completes it is served normally.
TEST_F(NetHostileTest, SlowLorisDribbleDoesNotStarveOtherClients) {
  Loopback loop(MakeService());
  StatusOr<ScopedFd> loris = loop.ConnectRaw();
  ASSERT_TRUE(loris.ok());

  const std::string frame = EncodedRequest(/*request_id=*/42, /*object_id=*/2);
  Client client = loop.Connect();
  ServiceRequest probe;
  probe.object_id = 1;
  probe.options.k = 3;

  for (size_t i = 0; i < frame.size(); ++i) {
    ASSERT_TRUE(WriteAll(loris->get(), frame.data() + i, 1).ok());
    // Interleave: a healthy client is served while the dribble crawls.
    if (i % 4 == 0) {
      StatusOr<ServiceResponse> served = client.Execute(probe);
      ASSERT_TRUE(served.ok()) << served.status().ToString();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // The completed dribble is just a request; it gets its response.
  FrameHeader header;
  std::string payload;
  bool clean_eof = false;
  ASSERT_TRUE(ReadFrame(loris->get(), &header, &payload, &clean_eof).ok());
  ASSERT_FALSE(clean_eof);
  EXPECT_EQ(header.type, FrameType::kResponse);
  EXPECT_EQ(header.request_id, 42u);
}

// With read_timeout_seconds set, a peer that stalls mid-frame is
// reaped: the reactor's idle sweep closes the connection instead of
// letting a dribbler pin it forever.
TEST_F(NetHostileTest, ReadTimeoutReapsMidFrameStall) {
  ServerOptions options;
  options.read_timeout_seconds = 0.2;
  Loopback loop(MakeService(), options);

  StatusOr<ScopedFd> staller = loop.ConnectRaw();
  ASSERT_TRUE(staller.ok());
  const std::string frame = EncodedRequest(1, 0);
  // Half a header, then silence.
  ASSERT_TRUE(WriteAll(staller->get(), frame.data(), 10).ok());

  // The server must close us well before this deadline.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool closed = false;
  while (!closed && std::chrono::steady_clock::now() < deadline) {
    char byte = 0;
    const ssize_t n = ::recv(staller->get(), &byte, 1, MSG_DONTWAIT);
    if (n == 0) {
      closed = true;  // orderly close from the server
    } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
      closed = true;  // reset also counts as reaped
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_TRUE(closed);

  // A live, well-behaved connection is not reaped while it keeps
  // talking, and the server still answers.
  Client client = loop.Connect();
  ServiceRequest req;
  req.object_id = 2;
  req.options.k = 3;
  StatusOr<ServiceResponse> response = client.Execute(req);
  EXPECT_TRUE(response.ok()) << response.status().ToString();
}

// Peers that disconnect mid-frame (header cut, payload cut, or right
// after the header) are expected churn: no protocol error storm, no
// leaked connection slots, and the server keeps serving.
TEST_F(NetHostileTest, MidFrameDisconnectLeavesNothingBehind) {
  Loopback loop(MakeService());
  const std::string frame = EncodedRequest(7, 3);

  constexpr int kRounds = 16;
  for (int i = 0; i < kRounds; ++i) {
    StatusOr<ScopedFd> fd = loop.ConnectRaw();
    ASSERT_TRUE(fd.ok());
    // Cut points sweep the header (incl. zero bytes) and the payload.
    const size_t cut = (i * frame.size()) / kRounds;
    if (cut > 0) {
      ASSERT_TRUE(WriteAll(fd->get(), frame.data(), cut).ok());
    }
    fd->Reset();  // abrupt close, possibly mid-frame
  }

  // Every aborted connection is eventually reaped from the gauge.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (loop.server->stats().open_connections > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(loop.server->stats().open_connections, 0u);

  Client client = loop.Connect();
  ServiceRequest req;
  req.object_id = 3;
  req.options.k = 3;
  StatusOr<ServiceResponse> remote = client.Execute(req);
  StatusOr<ServiceResponse> local = loop.service->Execute(req);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(remote->neighbors, local->neighbors);
}

// A pipelined burst far past the service's admission queue: the
// overflow comes back as per-request kUnavailable completions, in
// request order, on a connection that stays healthy. This is the
// wire-level face of the service's bounded-queue contract -- load
// shedding, not connection death (docs/PROTOCOL.md §11.3).
TEST_F(NetHostileTest, PipelinedBurstPastAdmissionQueueShedsLoad) {
  QueryServiceOptions sopts;
  sopts.num_threads = 1;
  sopts.max_queue = 2;
  sopts.cache_bytes = 0;
  Loopback loop(MakeService(sopts));
  // Hold the worker (the cache is off, so every request queues) so the
  // burst decisively outruns it.
  loop.service->Pause();
  Client client = loop.Connect();

  constexpr int kBurst = 64;
  std::vector<uint64_t> sent_ids;
  for (int i = 0; i < kBurst; ++i) {
    ServiceRequest req;
    req.object_id = i % static_cast<int>(db_->size());
    req.options.k = 3;
    uint64_t id = 0;
    ASSERT_TRUE(client.Send(req, &id).ok());
    sent_ids.push_back(id);
  }
  // The queue's worth is admitted and the next request shed; then the
  // worker may go.
  while (loop.service->Stats().rejected == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  loop.service->Resume();

  int ok_count = 0;
  int shed_count = 0;
  for (int i = 0; i < kBurst; ++i) {
    uint64_t id = 0;
    StatusOr<ServiceResponse> response = client.Receive(&id);
    EXPECT_EQ(id, sent_ids[static_cast<size_t>(i)]);  // strict order
    if (response.ok()) {
      ++ok_count;
    } else {
      ASSERT_EQ(response.status().code(), StatusCode::kUnavailable)
          << response.status().ToString();
      ++shed_count;
    }
  }
  EXPECT_GT(ok_count, 0);    // the queue's worth of work was done
  EXPECT_GT(shed_count, 0);  // and the overflow was shed

  // Shedding is per-request: the connection serves the next query.
  ServiceRequest req;
  req.object_id = 0;
  req.options.k = 3;
  StatusOr<ServiceResponse> after = client.Execute(req);
  EXPECT_TRUE(after.ok()) << after.status().ToString();

  // The rejected tail completes instantly behind an executing head, so
  // the reactor's flush merges responses into coalesced writes.
  EXPECT_GT(loop.server->stats().coalesced_writes, 0u);
}

// A tiny pipeline window under a deep burst: the server throttles its
// *reading* (backpressure) instead of buffering without bound or
// dropping requests -- every response still arrives, in order. The
// pause is observable as read-stall time.
TEST_F(NetHostileTest, TinyPipelineWindowBackpressuresWithoutLoss) {
  QueryServiceOptions sopts;
  sopts.num_threads = 2;
  sopts.cache_bytes = 0;
  ServerOptions options;
  options.max_pipeline = 4;
  Loopback loop(MakeService(sopts), options);
  // Hold the workers (the cache is off, so every request queues) until
  // the window has filled and the reader has paused for a while.
  loop.service->Pause();
  Client client = loop.Connect();

  constexpr int kBurst = 32;
  std::vector<uint64_t> sent_ids;
  for (int i = 0; i < kBurst; ++i) {
    ServiceRequest req;
    req.object_id = i % static_cast<int>(db_->size());
    req.options.k = 3;
    uint64_t id = 0;
    ASSERT_TRUE(client.Send(req, &id).ok());
    sent_ids.push_back(id);
  }
  while (loop.server->stats().requests_received < options.max_pipeline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  loop.service->Resume();
  for (int i = 0; i < kBurst; ++i) {
    uint64_t id = 0;
    StatusOr<ServiceResponse> response = client.Receive(&id);
    ASSERT_TRUE(response.ok())
        << "request " << i << ": " << response.status().ToString();
    EXPECT_EQ(id, sent_ids[static_cast<size_t>(i)]);
  }

  // 32 requests through a window of 4 must have paused the reader.
  EXPECT_GT(loop.server->stats().read_stall_seconds, 0.0);
}

// A header announcing an absurd payload length is refused up front
// (bounds check before any allocation): connection-level status frame
// (request id 0), then close.
TEST_F(NetHostileTest, OversizedPayloadLengthIsRefusedBeforeAllocation) {
  Loopback loop(MakeService());
  StatusOr<ScopedFd> fd = loop.ConnectRaw();
  ASSERT_TRUE(fd.ok());

  // Hand-build a header whose length field far exceeds
  // kMaxFramePayloadBytes (layout: docs/PROTOCOL.md §3).
  uint8_t header[kFrameHeaderBytes] = {};
  const uint32_t magic = kWireMagic;
  const uint16_t version = kWireVersion;
  const uint64_t request_id = 5;
  const uint32_t payload_bytes = 0xF0000000u;  // ~3.75 GiB
  std::memcpy(header + 0, &magic, 4);
  std::memcpy(header + 4, &version, 2);
  header[6] = static_cast<uint8_t>(FrameType::kRequest);
  header[7] = kFlagFinal;
  std::memcpy(header + 8, &request_id, 8);
  std::memcpy(header + 16, &payload_bytes, 4);
  ASSERT_TRUE(WriteAll(fd->get(), header, sizeof(header)).ok());

  FrameHeader reply;
  std::string payload;
  bool clean_eof = false;
  ASSERT_TRUE(ReadFrame(fd->get(), &reply, &payload, &clean_eof).ok());
  ASSERT_FALSE(clean_eof);
  EXPECT_EQ(reply.type, FrameType::kStatus);
  EXPECT_EQ(reply.request_id, 0u);  // connection-level error
  // ... then the server closes.
  ASSERT_TRUE(ReadFrame(fd->get(), &reply, &payload, &clean_eof).ok());
  EXPECT_TRUE(clean_eof);

  EXPECT_GE(loop.server->stats().protocol_errors, 1u);
  Client client = loop.Connect();
  ServiceRequest req;
  req.object_id = 1;
  req.options.k = 3;
  EXPECT_TRUE(client.Execute(req).ok());
}

}  // namespace
}  // namespace vsim::net
