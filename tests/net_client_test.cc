// net::Client's reader against a raw-socket peer that stands in for the
// server, so each test fixes exactly which bytes arrive and when:
// several responses in one read, a response dribbled one byte at a
// time, end-of-stream at and inside a frame, a length over the payload
// cap, frames larger than the read buffer, and info/stats exchanges
// after pipelined responses. Every completion must decode exactly as
// the server encoded it, and every transport failure must poison the
// connection.
#include "vsim/net/client.h"

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <chrono>
#include <cstdint>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "vsim/net/protocol.h"
#include "vsim/net/socket_util.h"

namespace vsim::net {
namespace {

// A client connected to a peer socket the test drives by hand.
struct RawPeer {
  ScopedFd listener;
  ScopedFd peer;
  Client client;

  RawPeer() {
    StatusOr<ScopedFd> listen = ListenTcp("127.0.0.1", 0);
    EXPECT_TRUE(listen.ok()) << listen.status().ToString();
    listener = std::move(listen).value();
    StatusOr<int> port = LocalPort(listener.get());
    EXPECT_TRUE(port.ok());
    // The kernel completes the handshake from the backlog, so the
    // connect returns before the accept below.
    StatusOr<Client> connected = Client::Connect("127.0.0.1", port.value());
    EXPECT_TRUE(connected.ok()) << connected.status().ToString();
    client = std::move(connected).value();
    peer = ScopedFd(::accept(listener.get(), nullptr, nullptr));
    EXPECT_TRUE(peer.valid());
  }

  // Reads one frame the client sent and returns its request id.
  uint64_t ReadRequest(FrameType expected) {
    FrameHeader header;
    std::string payload;
    bool clean_eof = false;
    EXPECT_TRUE(ReadFrame(peer.get(), &header, &payload, &clean_eof).ok());
    EXPECT_FALSE(clean_eof);
    EXPECT_EQ(header.type, expected);
    return header.request_id;
  }

  void Write(const std::string& bytes) {
    ASSERT_TRUE(WriteAll(peer.get(), bytes.data(), bytes.size()).ok());
  }
};

// A k-NN answer whose every field derives from `tag`.
ServiceResponse TaggedResponse(int tag, int neighbors = 10) {
  ServiceResponse response;
  response.cache_hit = tag % 2 == 0;
  response.generation = static_cast<uint64_t>(tag);
  response.latency_seconds = 1e-6 * tag;
  for (int i = 0; i < neighbors; ++i) {
    response.neighbors.push_back({tag * 100 + i, 0.25 * i + tag});
  }
  response.trace_hi = 0x5000u + static_cast<uint64_t>(tag);
  response.trace_lo = 0x6000u + static_cast<uint64_t>(tag);
  return response;
}

void ExpectTagged(const StatusOr<ServiceResponse>& got, int tag,
                  int neighbors = 10) {
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  const ServiceResponse want = TaggedResponse(tag, neighbors);
  EXPECT_EQ(got->cache_hit, want.cache_hit);
  EXPECT_EQ(got->generation, want.generation);
  EXPECT_EQ(got->latency_seconds, want.latency_seconds);
  EXPECT_EQ(got->neighbors, want.neighbors);
  EXPECT_EQ(got->trace_hi, want.trace_hi);
  EXPECT_EQ(got->trace_lo, want.trace_lo);
}

ServiceRequest StoredRequest(int id) {
  ServiceRequest request;
  request.object_id = id;
  request.options.k = 10;
  return request;
}

// Sends `count` requests and has the peer read them; returns their ids.
std::vector<uint64_t> SendRequests(RawPeer* raw, int count) {
  std::vector<uint64_t> ids;
  for (int i = 0; i < count; ++i) {
    uint64_t id = 0;
    EXPECT_TRUE(raw->client.Send(StoredRequest(i), &id).ok());
    EXPECT_EQ(raw->ReadRequest(FrameType::kRequest), id);
    ids.push_back(id);
  }
  return ids;
}

TEST(NetClientTest, PipelinedResponsesArrivingInOneReadAllDecode) {
  RawPeer raw;
  const std::vector<uint64_t> ids = SendRequests(&raw, 3);
  // All three completions are on the socket before the first Receive,
  // in one write -- a chunked one (three frames) in the middle.
  std::string bytes;
  AppendResponseFrames(ids[0], TaggedResponse(1), &bytes);
  AppendResponseFrames(ids[1], TaggedResponse(2), &bytes, 4);
  AppendResponseFrames(ids[2], TaggedResponse(3), &bytes);
  raw.Write(bytes);
  for (int i = 0; i < 3; ++i) {
    uint64_t id = 0;
    ExpectTagged(raw.client.Receive(&id), i + 1);
    EXPECT_EQ(id, ids[static_cast<size_t>(i)]);
  }
  EXPECT_TRUE(raw.client.ok());
}

TEST(NetClientTest, ResponseWrittenOneByteAtATimeDecodes) {
  RawPeer raw;
  const std::vector<uint64_t> ids = SendRequests(&raw, 1);
  std::string bytes;
  AppendResponseFrames(ids[0], TaggedResponse(7), &bytes, 4);
  std::thread dribble([&raw, &bytes] {
    for (const char c : bytes) {
      ASSERT_TRUE(WriteAll(raw.peer.get(), &c, 1).ok());
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });
  uint64_t id = 0;
  ExpectTagged(raw.client.Receive(&id), 7);
  dribble.join();
  EXPECT_EQ(id, ids[0]);
  EXPECT_TRUE(raw.client.ok());
}

// The peer closes at a frame boundary: what arrived decodes, and the
// completion that never came is an IOError that poisons the client.
TEST(NetClientTest, EndOfStreamAtAFrameBoundaryIsClean) {
  RawPeer raw;
  const std::vector<uint64_t> ids = SendRequests(&raw, 2);
  std::string bytes;
  AppendResponseFrames(ids[0], TaggedResponse(1), &bytes);
  raw.Write(bytes);
  raw.peer.Reset();
  ExpectTagged(raw.client.Receive(), 1);
  EXPECT_TRUE(raw.client.ok());
  const StatusOr<ServiceResponse> missing = raw.client.Receive();
  EXPECT_EQ(missing.status().code(), StatusCode::kIOError);
  EXPECT_NE(missing.status().message().find("server closed the connection"),
            std::string::npos)
      << missing.status().ToString();
  EXPECT_FALSE(raw.client.ok());
}

TEST(NetClientTest, EndOfStreamInsideAFrameIsAnIOErrorAndPoisons) {
  std::string frame;
  AppendResponseFrames(1, TaggedResponse(1), &frame);
  // Cut inside the header, right after it, and inside the payload.
  for (const size_t cut : {size_t{7}, kFrameHeaderBytes, frame.size() - 1}) {
    RawPeer raw;
    const std::vector<uint64_t> ids = SendRequests(&raw, 1);
    ASSERT_EQ(ids[0], 1u);
    raw.Write(frame.substr(0, cut));
    raw.peer.Reset();
    const StatusOr<ServiceResponse> cut_short = raw.client.Receive();
    EXPECT_EQ(cut_short.status().code(), StatusCode::kIOError) << cut;
    EXPECT_NE(cut_short.status().message().find("mid-frame"),
              std::string::npos)
        << cut_short.status().ToString();
    EXPECT_FALSE(raw.client.ok());
    EXPECT_EQ(raw.client.Receive().status().code(),
              StatusCode::kFailedPrecondition);
  }
}

// A header announcing more than kMaxFramePayloadBytes is refused as
// soon as the header is in: the client neither waits for the payload
// nor sizes a buffer for it. (The peer keeps the connection open, so a
// client that tried to read the payload would block.)
TEST(NetClientTest, PayloadLengthOverTheCapIsRejectedFromTheHeader) {
  RawPeer raw;
  SendRequests(&raw, 1);
  std::string header;
  AppendFrame(FrameType::kResponse, kFlagFinal, 1, "", &header);
  const uint32_t announced = kMaxFramePayloadBytes + 1;
  for (int i = 0; i < 4; ++i) {
    header[16 + i] = static_cast<char>(announced >> (8 * i));
  }
  raw.Write(header);
  std::future<Status> received = std::async(std::launch::async, [&raw] {
    return raw.client.Receive().status();
  });
  if (received.wait_for(std::chrono::seconds(10)) !=
      std::future_status::ready) {
    raw.peer.Reset();  // unblock the reader before failing
    FAIL() << "the client waited for the payload of an oversized frame";
  }
  const Status status = received.get();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_NE(status.message().find("exceeds cap"), std::string::npos)
      << status.ToString();
  EXPECT_FALSE(raw.client.ok());
}

// Two hundred pipelined completions (about 50 KiB) in one write overrun
// the read buffer, so frames straddle its end and move to the front; a
// stats response larger than the buffer makes it grow.
TEST(NetClientTest, FramesStraddlingAndOutgrowingTheBufferDecode) {
  RawPeer raw;
  constexpr int kCount = 200;
  const std::vector<uint64_t> ids = SendRequests(&raw, kCount);
  std::string bytes;
  for (int i = 0; i < kCount; ++i) {
    AppendResponseFrames(ids[static_cast<size_t>(i)], TaggedResponse(i),
                         &bytes);
  }
  ASSERT_GT(bytes.size(), 32u * 1024);
  std::thread writer([&raw, &bytes] { raw.Write(bytes); });
  for (int i = 0; i < kCount; ++i) {
    uint64_t id = 0;
    ExpectTagged(raw.client.Receive(&id), i);
    ASSERT_EQ(id, ids[static_cast<size_t>(i)]);
  }
  writer.join();

  StatsResponse big;
  big.metrics_text.assign(100 * 1024, 'm');
  big.profile_text = "main 1\n";
  std::string stats_frame;
  AppendStatsResponseFrame(kCount + 1, big, &stats_frame);
  std::thread stats_writer([&raw, &stats_frame] {
    EXPECT_EQ(raw.ReadRequest(FrameType::kStatsRequest), kCount + 1u);
    raw.Write(stats_frame);
  });
  StatusOr<StatsResponse> stats = raw.client.Stats();
  stats_writer.join();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->metrics_text, big.metrics_text);
  EXPECT_EQ(stats->profile_text, big.profile_text);
  EXPECT_TRUE(raw.client.ok());
}

// Info and Stats read through the same buffer as Receive: after a
// pipelined window was received whole, their replies decode, and the
// next query still matches its own completion.
TEST(NetClientTest, InfoAndStatsWorkAfterPipelinedResponses) {
  RawPeer raw;
  const std::vector<uint64_t> ids = SendRequests(&raw, 3);
  std::string bytes;
  for (int i = 0; i < 3; ++i) {
    AppendResponseFrames(ids[static_cast<size_t>(i)], TaggedResponse(i),
                         &bytes);
  }
  raw.Write(bytes);
  for (int i = 0; i < 3; ++i) ExpectTagged(raw.client.Receive(), i);

  // Ids continue from the queries: 4 for Info, 5 for Stats. Both
  // replies are on the socket before either call.
  ServerInfo info;
  info.generation = 12;
  info.object_count = 2000;
  info.feature_flags = kFeatureStats;
  StatsResponse stats;
  stats.metrics_text = "vsim_requests_completed_total 3\n";
  std::string replies;
  AppendInfoResponseFrame(4, info, &replies);
  AppendStatsResponseFrame(5, stats, &replies);
  raw.Write(replies);
  StatusOr<ServerInfo> got_info = raw.client.Info();
  ASSERT_TRUE(got_info.ok()) << got_info.status().ToString();
  EXPECT_EQ(got_info->generation, 12u);
  EXPECT_EQ(got_info->object_count, 2000u);
  EXPECT_EQ(got_info->feature_flags, kFeatureStats);
  EXPECT_EQ(raw.ReadRequest(FrameType::kInfoRequest), 4u);
  StatusOr<StatsResponse> got_stats = raw.client.Stats();
  ASSERT_TRUE(got_stats.ok()) << got_stats.status().ToString();
  EXPECT_EQ(got_stats->metrics_text, stats.metrics_text);
  EXPECT_EQ(raw.ReadRequest(FrameType::kStatsRequest), 5u);

  const std::vector<uint64_t> next = SendRequests(&raw, 1);
  EXPECT_EQ(next[0], 6u);
  std::string answer;
  AppendResponseFrames(next[0], TaggedResponse(9), &answer);
  raw.Write(answer);
  uint64_t id = 0;
  ExpectTagged(raw.client.Receive(&id), 9);
  EXPECT_EQ(id, 6u);
  EXPECT_TRUE(raw.client.ok());
}

}  // namespace
}  // namespace vsim::net
