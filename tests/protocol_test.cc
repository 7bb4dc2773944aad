// Wire-protocol codec tests: exact round trips for every frame kind,
// streamed-response reassembly, and a malformed-frame corpus in the
// spirit of tests/corrupt_file_test.cc -- valid frames truncated at
// every length and bit-flipped throughout must always produce clean
// Status errors, never crashes, hangs or runaway allocations (the
// server feeds attacker-controlled bytes straight into these decoders).
#include "vsim/net/protocol.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "vsim/common/rng.h"

namespace vsim::net {
namespace {

const uint8_t* Bytes(const std::string& s) {
  return reinterpret_cast<const uint8_t*>(s.data());
}

// A representative external-query request touching every field.
ServiceRequest MakeExternalRequest() {
  ServiceRequest req;
  req.kind = QueryKind::kInvariantKnn;
  req.strategy = QueryStrategy::kVectorSetScan;
  req.object_id = -1;
  req.options.k = 7;
  req.options.eps = 1.25;
  req.with_reflections = true;
  req.options.timeout_seconds = 0.75;
  Rng rng(7);
  for (int v = 0; v < 3; ++v) {
    FeatureVector vec(6);
    for (double& d : vec) d = rng.NextDouble();
    req.query.vector_set.vectors.push_back(std::move(vec));
  }
  req.query.centroid = FeatureVector(7);
  for (double& d : req.query.centroid) d = rng.NextDouble();
  req.query.cover_vector = FeatureVector(42);
  for (double& d : req.query.cover_vector) d = rng.NextDouble();
  return req;
}

ServiceResponse MakeResponse(int neighbors, int ids) {
  ServiceResponse resp;
  Rng rng(11);
  for (int i = 0; i < neighbors; ++i) {
    resp.neighbors.push_back({i * 3, rng.NextDouble()});
  }
  for (int i = 0; i < ids; ++i) resp.ids.push_back(i * 5 + 1);
  resp.cache_hit = true;
  resp.generation = 42;
  resp.latency_seconds = 0.002;
  resp.cost.cpu_seconds = 0.001;
  resp.cost.io.AddPageAccesses(17);
  resp.cost.io.AddBytesRead(1234);
  resp.cost.candidates_refined = 9;
  return resp;
}

// Splits a concatenation of frames into (header, payload) pairs,
// asserting each header decodes.
struct RawFrame {
  FrameHeader header;
  std::string payload;
};

std::vector<RawFrame> SplitFrames(const std::string& buffer) {
  std::vector<RawFrame> frames;
  size_t pos = 0;
  while (pos < buffer.size()) {
    RawFrame f;
    EXPECT_TRUE(DecodeFrameHeader(Bytes(buffer) + pos,
                                  kFrameHeaderBytes, &f.header)
                    .ok());
    pos += kFrameHeaderBytes;
    f.payload = buffer.substr(pos, f.header.payload_bytes);
    pos += f.header.payload_bytes;
    frames.push_back(std::move(f));
  }
  EXPECT_EQ(pos, buffer.size());
  return frames;
}

// --- round trips -----------------------------------------------------

TEST(ProtocolTest, RequestWithExternalQueryRoundTrips) {
  const ServiceRequest req = MakeExternalRequest();
  std::string buffer;
  AppendRequestFrame(99, req, &buffer);
  const std::vector<RawFrame> frames = SplitFrames(buffer);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].header.type, FrameType::kRequest);
  EXPECT_EQ(frames[0].header.request_id, 99u);

  ServiceRequest out;
  ASSERT_TRUE(DecodeRequestPayload(Bytes(frames[0].payload),
                                   frames[0].payload.size(), &out)
                  .ok());
  EXPECT_EQ(out.kind, req.kind);
  EXPECT_EQ(out.strategy, req.strategy);
  EXPECT_EQ(out.object_id, req.object_id);
  EXPECT_EQ(out.options.k, req.options.k);
  EXPECT_EQ(out.options.eps, req.options.eps);
  EXPECT_EQ(out.with_reflections, req.with_reflections);
  EXPECT_EQ(out.options.timeout_seconds, req.options.timeout_seconds);
  ASSERT_EQ(out.query.vector_set.size(), req.query.vector_set.size());
  for (size_t v = 0; v < req.query.vector_set.vectors.size(); ++v) {
    EXPECT_EQ(out.query.vector_set.vectors[v],
              req.query.vector_set.vectors[v]);
  }
  EXPECT_EQ(out.query.centroid, req.query.centroid);
  EXPECT_EQ(out.query.cover_vector, req.query.cover_vector);
}

TEST(ProtocolTest, StoredIdRequestCarriesNoQueryPayload) {
  ServiceRequest req;
  req.object_id = 17;
  std::string by_id;
  AppendRequestFrame(1, req, &by_id);
  std::string external;
  AppendRequestFrame(1, MakeExternalRequest(), &external);
  EXPECT_LT(by_id.size(), external.size());

  const std::vector<RawFrame> frames = SplitFrames(by_id);
  ASSERT_EQ(frames.size(), 1u);
  ServiceRequest out;
  ASSERT_TRUE(DecodeRequestPayload(Bytes(frames[0].payload),
                                   frames[0].payload.size(), &out)
                  .ok());
  EXPECT_EQ(out.object_id, 17);
  EXPECT_EQ(out.query.vector_set.size(), 0u);
}

// Payload bytes 0 and 1 carry the kind and strategy values that
// docs/PROTOCOL.md §3 documents; strategies 3 (the former M-tree) and 4
// (the former VA-file filter) are retired and rejected.
TEST(ProtocolTest, KindAndStrategyBytesMatchTheDocumentedValues) {
  const std::pair<QueryKind, uint8_t> kinds[] = {
      {QueryKind::kKnn, 0},
      {QueryKind::kRange, 1},
      {QueryKind::kInvariantKnn, 2},
      {QueryKind::kInvariantRange, 3}};
  const std::pair<QueryStrategy, uint8_t> strategies[] = {
      {QueryStrategy::kOneVectorXTree, 0},
      {QueryStrategy::kVectorSetFilter, 1},
      {QueryStrategy::kVectorSetScan, 2}};
  for (const auto& [kind, kind_byte] : kinds) {
    for (const auto& [strategy, strategy_byte] : strategies) {
      ServiceRequest req;
      req.kind = kind;
      req.strategy = strategy;
      req.object_id = 5;
      std::string buffer;
      AppendRequestFrame(1, req, &buffer);
      const std::vector<RawFrame> frames = SplitFrames(buffer);
      ASSERT_EQ(frames.size(), 1u);
      const std::string& payload = frames[0].payload;
      ASSERT_GE(payload.size(), 2u);
      EXPECT_EQ(static_cast<uint8_t>(payload[0]), kind_byte);
      EXPECT_EQ(static_cast<uint8_t>(payload[1]), strategy_byte);
      ServiceRequest out;
      ASSERT_TRUE(
          DecodeRequestPayload(Bytes(payload), payload.size(), &out).ok());
      EXPECT_EQ(out.kind, kind);
      EXPECT_EQ(out.strategy, strategy);
    }
  }

  ServiceRequest req;
  req.object_id = 5;
  std::string buffer;
  AppendRequestFrame(1, req, &buffer);
  for (const int retired_byte : {3, 4}) {
    std::string payload = SplitFrames(buffer)[0].payload;
    payload[1] = static_cast<char>(retired_byte);
    ServiceRequest out;
    const Status retired =
        DecodeRequestPayload(Bytes(payload), payload.size(), &out);
    EXPECT_EQ(retired.code(), StatusCode::kInvalidArgument)
        << "strategy " << retired_byte << ": " << retired.ToString();
  }
}

TEST(ProtocolTest, StatusFrameRoundTripsCodeAndMessage) {
  std::string buffer;
  AppendStatusFrame(7, Status::Unavailable("queue full"), &buffer);
  const std::vector<RawFrame> frames = SplitFrames(buffer);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].header.type, FrameType::kStatus);
  Status remote;
  ASSERT_TRUE(DecodeStatusPayload(Bytes(frames[0].payload),
                                  frames[0].payload.size(), &remote)
                  .ok());
  EXPECT_EQ(remote.code(), StatusCode::kUnavailable);
  EXPECT_EQ(remote.message(), "queue full");
}

TEST(ProtocolTest, InfoRoundTrips) {
  ServerInfo info;
  info.generation = 3;
  info.object_count = 250;
  info.num_covers = 9;
  info.cover_resolution = 12;
  info.histogram_cells = 4;
  info.histogram_resolution = 20;
  info.extract_histograms = true;
  info.anisotropic_fit = false;
  info.cover_search = CoverSequenceOptions::Search::kBeam;
  std::string buffer;
  AppendInfoResponseFrame(5, info, &buffer);
  const std::vector<RawFrame> frames = SplitFrames(buffer);
  ASSERT_EQ(frames.size(), 1u);
  ServerInfo out;
  ASSERT_TRUE(DecodeInfoResponsePayload(Bytes(frames[0].payload),
                                        frames[0].payload.size(), &out)
                  .ok());
  EXPECT_EQ(out.generation, info.generation);
  EXPECT_EQ(out.object_count, info.object_count);
  EXPECT_EQ(out.num_covers, info.num_covers);
  EXPECT_EQ(out.cover_resolution, info.cover_resolution);
  EXPECT_EQ(out.histogram_cells, info.histogram_cells);
  EXPECT_EQ(out.histogram_resolution, info.histogram_resolution);
  EXPECT_EQ(out.extract_histograms, info.extract_histograms);
  EXPECT_EQ(out.anisotropic_fit, info.anisotropic_fit);
  EXPECT_EQ(out.cover_search, info.cover_search);
}

// A trace with every field distinct, for exact round-trip checks.
obs::QueryTrace MakeTrace(uint64_t id) {
  obs::QueryTrace t{};
  t.trace_id = id;
  t.generation = 3;
  t.kind = static_cast<uint8_t>(QueryKind::kInvariantKnn);
  t.strategy = static_cast<uint8_t>(QueryStrategy::kVectorSetScan);
  t.cache_hit = 1;
  t.status_code = static_cast<uint8_t>(StatusCode::kDeadlineExceeded);
  t.k = 10;
  t.eps = 0.5;
  t.queue_seconds = 0.001;
  t.total_seconds = 0.025;
  t.cpu_seconds = 0.02;
  t.filter_seconds = 0.004;
  t.refine_seconds = 0.016;
  t.filter_hits = 37;
  t.candidates_refined = 12;
  t.hungarian_invocations = 12;
  t.page_accesses = 88;
  t.bytes_read = 4096;
  return t;
}

TEST(ProtocolTest, StatsRequestRoundTrips) {
  StatsRequest req;
  req.max_traces = 17;
  req.slow_only = true;
  std::string buffer;
  AppendStatsRequestFrame(9, req, &buffer);
  const std::vector<RawFrame> frames = SplitFrames(buffer);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].header.type, FrameType::kStatsRequest);
  StatsRequest out;
  ASSERT_TRUE(DecodeStatsRequestPayload(Bytes(frames[0].payload),
                                        frames[0].payload.size(), &out)
                  .ok());
  EXPECT_EQ(out.max_traces, 17u);
  EXPECT_TRUE(out.slow_only);
}

TEST(ProtocolTest, StatsResponseRoundTripsTextAndTraces) {
  StatsResponse resp;
  resp.metrics_text = "# HELP vsim_requests_completed_total x\n"
                      "vsim_requests_completed_total 7\n";
  resp.traces.push_back(MakeTrace(101));
  resp.traces.push_back(MakeTrace(102));
  resp.traces[1].cache_hit = 0;
  resp.traces[1].status_code = 0;
  std::string buffer;
  AppendStatsResponseFrame(12, resp, &buffer);
  const std::vector<RawFrame> frames = SplitFrames(buffer);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].header.type, FrameType::kStatsResponse);
  StatsResponse out;
  ASSERT_TRUE(DecodeStatsResponsePayload(Bytes(frames[0].payload),
                                         frames[0].payload.size(), &out)
                  .ok());
  EXPECT_EQ(out.metrics_text, resp.metrics_text);
  ASSERT_EQ(out.traces.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    const obs::QueryTrace& a = resp.traces[i];
    const obs::QueryTrace& b = out.traces[i];
    EXPECT_EQ(b.trace_id, a.trace_id);
    EXPECT_EQ(b.generation, a.generation);
    EXPECT_EQ(b.kind, a.kind);
    EXPECT_EQ(b.strategy, a.strategy);
    EXPECT_EQ(b.cache_hit, a.cache_hit);
    EXPECT_EQ(b.status_code, a.status_code);
    EXPECT_EQ(b.k, a.k);
    EXPECT_EQ(b.eps, a.eps);
    EXPECT_EQ(b.queue_seconds, a.queue_seconds);
    EXPECT_EQ(b.total_seconds, a.total_seconds);
    EXPECT_EQ(b.cpu_seconds, a.cpu_seconds);
    EXPECT_EQ(b.filter_seconds, a.filter_seconds);
    EXPECT_EQ(b.refine_seconds, a.refine_seconds);
    EXPECT_EQ(b.filter_hits, a.filter_hits);
    EXPECT_EQ(b.candidates_refined, a.candidates_refined);
    EXPECT_EQ(b.hungarian_invocations, a.hungarian_invocations);
    EXPECT_EQ(b.page_accesses, a.page_accesses);
    EXPECT_EQ(b.bytes_read, a.bytes_read);
  }

  // A trace naming a retired strategy -- 3, the M-tree an older server
  // still served, or 4 -- fails the whole response.
  for (const int retired_byte : {3, 4}) {
    resp.traces[1].strategy = static_cast<uint8_t>(retired_byte);
    buffer.clear();
    AppendStatsResponseFrame(12, resp, &buffer);
    const std::string payload = SplitFrames(buffer)[0].payload;
    const Status retired =
        DecodeStatsResponsePayload(Bytes(payload), payload.size(), &out);
    EXPECT_EQ(retired.code(), StatusCode::kInvalidArgument)
        << "strategy " << retired_byte << ": " << retired.ToString();
  }
}

// Trailing bytes the current request encoder emits after the
// ObjectRepr: [reserved u32][trace_hi u64][trace_lo u64]
// [parent_span_id u64] (docs/PROTOCOL.md §3, §12).
constexpr size_t kRequestTraceBlockBytes = 3 * sizeof(uint64_t);
constexpr size_t kRequestTrailingBytes =
    sizeof(uint32_t) + kRequestTraceBlockBytes;

TEST(ProtocolTest, LegacyRequestWithoutApproxLevelDecodesToZero) {
  // The oldest clients' request payload stops right after the
  // ObjectRepr, before the reserved u32; the tolerant decode must yield
  // the same options and an empty trace context, mirroring the
  // feature_flags evolution pattern. A slot cut short is a truncation.
  const ServiceRequest req = MakeExternalRequest();
  std::string buffer;
  AppendRequestFrame(31, req, &buffer);
  const std::vector<RawFrame> frames = SplitFrames(buffer);
  ASSERT_EQ(frames.size(), 1u);
  const std::string legacy = frames[0].payload.substr(
      0, frames[0].payload.size() - kRequestTrailingBytes);
  ServiceRequest out;
  ASSERT_TRUE(DecodeRequestPayload(Bytes(legacy), legacy.size(), &out).ok());
  EXPECT_FALSE(out.trace.valid());
  EXPECT_EQ(out.options.k, req.options.k);
  EXPECT_EQ(out.options.eps, req.options.eps);
  EXPECT_EQ(out.options.timeout_seconds, req.options.timeout_seconds);
  ASSERT_EQ(out.query.vector_set.size(), req.query.vector_set.size());

  const std::string partial = frames[0].payload.substr(
      0, frames[0].payload.size() - kRequestTrailingBytes + 2);
  EXPECT_FALSE(
      DecodeRequestPayload(Bytes(partial), partial.size(), &out).ok());
}

TEST(ProtocolTest, LegacyRequestWithoutTraceContextDecodesToZero) {
  // A pre-tracing client stops after the reserved slot; the trace block is
  // optional and its absence must read back as the zero (invalid)
  // context, never an error.
  ServiceRequest req = MakeExternalRequest();
  req.trace.trace_hi = 0x1111222233334444ULL;
  req.trace.trace_lo = 0x5555666677778888ULL;
  req.trace.parent_span_id = 0x9999aaaabbbbccccULL;
  std::string buffer;
  AppendRequestFrame(32, req, &buffer);
  const std::vector<RawFrame> frames = SplitFrames(buffer);
  ASSERT_EQ(frames.size(), 1u);

  // Full payload round-trips the context.
  ServiceRequest full;
  ASSERT_TRUE(DecodeRequestPayload(Bytes(frames[0].payload),
                                   frames[0].payload.size(), &full)
                  .ok());
  EXPECT_EQ(full.trace.trace_hi, req.trace.trace_hi);
  EXPECT_EQ(full.trace.trace_lo, req.trace.trace_lo);
  EXPECT_EQ(full.trace.parent_span_id, req.trace.parent_span_id);

  // Pre-tracing truncation (reserved slot kept) decodes with zeros.
  const std::string legacy = frames[0].payload.substr(
      0, frames[0].payload.size() - kRequestTraceBlockBytes);
  ServiceRequest out;
  ASSERT_TRUE(DecodeRequestPayload(Bytes(legacy), legacy.size(), &out).ok());
  EXPECT_EQ(out.options.k, req.options.k);
  EXPECT_FALSE(out.trace.valid());
  EXPECT_EQ(out.trace.parent_span_id, 0u);
}

// Sizes of the optional trailing blocks a current stats encoder emits
// after the fixed trace records, newest block last (docs/PROTOCOL.md
// §7, §12): the per-trace 12-byte reserved block, per-trace 16-byte
// trace ids, the span-tree block, the profiler text block.
constexpr size_t kReservedRecordBytes = 12;
constexpr size_t kTraceIdRecordBytes = 2 * sizeof(uint64_t);
size_t EmptySpanBlockBytes() { return sizeof(uint32_t); }
size_t EmptyProfileBlockBytes() { return sizeof(uint32_t); }

TEST(ProtocolTest, LegacyStatsResponseWithoutApproxBlockDecodesToZero) {
  // The oldest servers' stats payload ends after the fixed trace
  // records; every trailing block (reserved, trace ids, span trees,
  // profile) is optional and their absence must read back as zeros. A
  // reserved block cut short is a truncation.
  StatsResponse resp;
  resp.metrics_text = "vsim_requests_completed_total 1\n";
  resp.traces.push_back(MakeTrace(201));
  resp.traces.push_back(MakeTrace(202));
  std::string buffer;
  AppendStatsResponseFrame(13, resp, &buffer);
  const std::vector<RawFrame> frames = SplitFrames(buffer);
  ASSERT_EQ(frames.size(), 1u);
  const size_t trailing =
      resp.traces.size() * (kReservedRecordBytes + kTraceIdRecordBytes) +
      EmptySpanBlockBytes() + EmptyProfileBlockBytes();
  const std::string legacy =
      frames[0].payload.substr(0, frames[0].payload.size() - trailing);
  StatsResponse out;
  ASSERT_TRUE(
      DecodeStatsResponsePayload(Bytes(legacy), legacy.size(), &out).ok());
  ASSERT_EQ(out.traces.size(), 2u);
  for (const obs::QueryTrace& t : out.traces) {
    EXPECT_EQ(t.trace_hi, 0u);
    EXPECT_EQ(t.trace_lo, 0u);
    EXPECT_EQ(t.filter_hits, 37u);  // fixed records still decode fully
  }
  EXPECT_TRUE(out.span_trees.empty());
  EXPECT_TRUE(out.profile_text.empty());

  const std::string partial = frames[0].payload.substr(
      0, legacy.size() + resp.traces.size() * kReservedRecordBytes - 1);
  EXPECT_FALSE(
      DecodeStatsResponsePayload(Bytes(partial), partial.size(), &out).ok());
}

TEST(ProtocolTest, LegacyStatsResponseWithoutSpanBlocksDecodesEmpty) {
  // A server that predates tracing stops after the reserved block:
  // trace ids read as zero, span trees and profile text as empty --
  // tolerant trailing-field evolution, no version bump.
  StatsResponse resp;
  resp.metrics_text = "x 1\n";
  resp.traces.push_back(MakeTrace(301));
  resp.traces[0].trace_hi = 0xdeadbeefULL;
  resp.traces[0].trace_lo = 0xfeedfaceULL;
  std::string buffer;
  AppendStatsResponseFrame(14, resp, &buffer);
  const std::vector<RawFrame> frames = SplitFrames(buffer);
  ASSERT_EQ(frames.size(), 1u);
  const size_t trailing = resp.traces.size() * kTraceIdRecordBytes +
                          EmptySpanBlockBytes() + EmptyProfileBlockBytes();
  const std::string legacy =
      frames[0].payload.substr(0, frames[0].payload.size() - trailing);
  StatsResponse out;
  ASSERT_TRUE(
      DecodeStatsResponsePayload(Bytes(legacy), legacy.size(), &out).ok());
  ASSERT_EQ(out.traces.size(), 1u);
  EXPECT_EQ(out.traces[0].filter_hits, 37u);
  EXPECT_EQ(out.traces[0].trace_hi, 0u);  // trace ids truncated away
  EXPECT_EQ(out.traces[0].trace_lo, 0u);
  EXPECT_TRUE(out.span_trees.empty());
  EXPECT_TRUE(out.profile_text.empty());
}

TEST(ProtocolTest, StatsResponseRoundTripsSpanTreesAndProfile) {
  StatsResponse resp;
  resp.metrics_text = "x 1\n";
  resp.traces.push_back(MakeTrace(401));
  resp.traces[0].trace_hi = 0x0102030405060708ULL;
  resp.traces[0].trace_lo = 0x1112131415161718ULL;
  obs::SpanTreeRecord tree{};
  tree.summary.trace_hi = 0x0102030405060708ULL;
  tree.summary.trace_lo = 0x1112131415161718ULL;
  tree.summary.trace_id = 401;
  tree.span_count = 2;
  tree.spans_dropped = 3;
  tree.spans[0].span_id = 77;
  tree.spans[0].parent_span_id = 0;
  tree.spans[0].start_ns = 1000;
  tree.spans[0].end_ns = 9000;
  tree.spans[0].counter = 12;
  tree.spans[0].name = static_cast<uint8_t>(obs::SpanName::kRequest);
  tree.spans[1].span_id = 78;
  tree.spans[1].parent_span_id = 77;
  tree.spans[1].start_ns = 2000;
  tree.spans[1].end_ns = 4000;
  tree.spans[1].counter = 5;
  tree.spans[1].name = static_cast<uint8_t>(obs::SpanName::kFilter);
  resp.span_trees.push_back(tree);
  resp.profile_text = "main;Worker;Hungarian 17\n";
  std::string buffer;
  AppendStatsResponseFrame(15, resp, &buffer);
  const std::vector<RawFrame> frames = SplitFrames(buffer);
  ASSERT_EQ(frames.size(), 1u);
  StatsResponse out;
  ASSERT_TRUE(DecodeStatsResponsePayload(Bytes(frames[0].payload),
                                         frames[0].payload.size(), &out)
                  .ok());
  ASSERT_EQ(out.traces.size(), 1u);
  EXPECT_EQ(out.traces[0].trace_hi, resp.traces[0].trace_hi);
  EXPECT_EQ(out.traces[0].trace_lo, resp.traces[0].trace_lo);
  ASSERT_EQ(out.span_trees.size(), 1u);
  const obs::SpanTreeRecord& got = out.span_trees[0];
  EXPECT_EQ(got.summary.trace_hi, tree.summary.trace_hi);
  EXPECT_EQ(got.summary.trace_lo, tree.summary.trace_lo);
  EXPECT_EQ(got.summary.trace_id, tree.summary.trace_id);
  ASSERT_EQ(got.span_count, 2u);
  EXPECT_EQ(got.spans_dropped, 3u);
  for (uint32_t i = 0; i < got.span_count; ++i) {
    EXPECT_EQ(got.spans[i].span_id, tree.spans[i].span_id);
    EXPECT_EQ(got.spans[i].parent_span_id, tree.spans[i].parent_span_id);
    EXPECT_EQ(got.spans[i].start_ns, tree.spans[i].start_ns);
    EXPECT_EQ(got.spans[i].end_ns, tree.spans[i].end_ns);
    EXPECT_EQ(got.spans[i].counter, tree.spans[i].counter);
    EXPECT_EQ(got.spans[i].name, tree.spans[i].name);
  }
  EXPECT_EQ(out.profile_text, resp.profile_text);
}

// Little-endian field writer for hand-built frames.
void PutLe(std::string* out, uint64_t value, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out->push_back(static_cast<char>(value >> (8 * i)));
  }
}

void PutFrameHeader(std::string* out, FrameType type, uint64_t request_id,
                    size_t payload_bytes) {
  PutLe(out, kWireMagic, 4);
  PutLe(out, kWireVersion, 2);
  PutLe(out, static_cast<uint8_t>(type), 1);
  PutLe(out, kFlagFinal, 1);
  PutLe(out, request_id, 8);
  PutLe(out, payload_bytes, 4);
}

TEST(ProtocolTest, NonZeroReservedStatsBlockIsIgnored) {
  // An older server fills the reserved block (docs/PROTOCOL.md §7) with
  // a u32 and a u64 per trace, and its span trees may carry the retired
  // span name 5. Both must decode, with the trace ids and span trees
  // behind the block intact.
  StatsResponse resp;
  resp.metrics_text = "x 1\n";
  resp.traces.push_back(MakeTrace(501));
  resp.traces.push_back(MakeTrace(502));
  resp.traces[0].trace_hi = 0xa1;
  resp.traces[0].trace_lo = 0xa2;
  resp.traces[1].trace_hi = 0xb1;
  resp.traces[1].trace_lo = 0xb2;
  obs::SpanTreeRecord tree{};
  tree.summary.trace_hi = 0xa1;
  tree.summary.trace_lo = 0xa2;
  tree.summary.trace_id = 501;
  tree.span_count = 2;
  tree.spans[0].span_id = 5;
  tree.spans[0].start_ns = 100;
  tree.spans[0].end_ns = 900;
  tree.spans[0].name = static_cast<uint8_t>(obs::SpanName::kRequest);
  tree.spans[1].span_id = 6;
  tree.spans[1].parent_span_id = 5;
  tree.spans[1].start_ns = 200;
  tree.spans[1].end_ns = 200;
  tree.spans[1].counter = 300;
  tree.spans[1].name = 5;  // retired: an older server's pre-filter span
  resp.span_trees.push_back(tree);
  std::string buffer;
  AppendStatsResponseFrame(16, resp, &buffer);
  std::vector<RawFrame> frames = SplitFrames(buffer);
  ASSERT_EQ(frames.size(), 1u);
  std::string& payload = frames[0].payload;
  constexpr size_t kFixedTraceRecordBytes = 112;
  const size_t reserved_at = sizeof(uint32_t) + resp.metrics_text.size() +
                             sizeof(uint32_t) +
                             resp.traces.size() * kFixedTraceRecordBytes;
  std::string older;
  for (size_t i = 0; i < resp.traces.size(); ++i) {
    PutLe(&older, 2, 4);    // what a level-2 request recorded
    PutLe(&older, 300, 8);  // and the candidates its stage examined
  }
  ASSERT_EQ(payload.substr(reserved_at, older.size()),
            std::string(older.size(), '\0'));
  payload.replace(reserved_at, older.size(), older);

  StatsResponse out;
  ASSERT_TRUE(
      DecodeStatsResponsePayload(Bytes(payload), payload.size(), &out).ok());
  ASSERT_EQ(out.traces.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(out.traces[i].trace_id, resp.traces[i].trace_id);
    EXPECT_EQ(out.traces[i].bytes_read, resp.traces[i].bytes_read);
    EXPECT_EQ(out.traces[i].trace_hi, resp.traces[i].trace_hi);
    EXPECT_EQ(out.traces[i].trace_lo, resp.traces[i].trace_lo);
  }
  ASSERT_EQ(out.span_trees.size(), 1u);
  const obs::SpanTreeRecord& got = out.span_trees[0];
  EXPECT_EQ(got.summary.trace_hi, tree.summary.trace_hi);
  EXPECT_EQ(got.summary.trace_lo, tree.summary.trace_lo);
  EXPECT_EQ(got.summary.trace_id, tree.summary.trace_id);
  ASSERT_EQ(got.span_count, 2u);
  for (uint32_t i = 0; i < got.span_count; ++i) {
    EXPECT_EQ(got.spans[i].span_id, tree.spans[i].span_id);
    EXPECT_EQ(got.spans[i].parent_span_id, tree.spans[i].parent_span_id);
    EXPECT_EQ(got.spans[i].counter, tree.spans[i].counter);
    EXPECT_EQ(got.spans[i].name, tree.spans[i].name);
  }
}

TEST(ProtocolTest, EncodersWriteReservedSlotsAsZero) {
  // Both reserved slots are written as zeros, pinned byte for byte
  // against frames built by hand from docs/PROTOCOL.md §3 and §7.
  ServiceRequest req;
  req.kind = QueryKind::kRange;
  req.strategy = QueryStrategy::kVectorSetScan;
  req.object_id = 17;
  req.options.k = 10;
  req.options.eps = 0.5;
  req.options.timeout_seconds = 0.25;
  req.trace = {0x11, 0x22, 0x33};
  std::string payload;
  PutLe(&payload, static_cast<uint8_t>(QueryKind::kRange), 1);
  PutLe(&payload, static_cast<uint8_t>(QueryStrategy::kVectorSetScan), 1);
  PutLe(&payload, 0, 1);  // with_reflections
  PutLe(&payload, 0, 1);  // has_query
  PutLe(&payload, 17, 4);
  PutLe(&payload, 10, 4);
  PutLe(&payload, std::bit_cast<uint64_t>(0.5), 8);
  PutLe(&payload, std::bit_cast<uint64_t>(0.25), 8);
  PutLe(&payload, 0, 4);  // reserved u32
  PutLe(&payload, 0x11, 8);
  PutLe(&payload, 0x22, 8);
  PutLe(&payload, 0x33, 8);
  std::string want;
  PutFrameHeader(&want, FrameType::kRequest, 41, payload.size());
  want += payload;
  std::string got;
  AppendRequestFrame(41, req, &got);
  EXPECT_EQ(got, want);

  StatsResponse resp;
  resp.metrics_text = "m 1\n";
  obs::QueryTrace trace{};
  trace.trace_id = 9;
  trace.trace_hi = 0x44;
  trace.trace_lo = 0x55;
  resp.traces.push_back(trace);
  payload.clear();
  PutLe(&payload, resp.metrics_text.size(), 4);
  payload += resp.metrics_text;
  PutLe(&payload, 1, 4);  // one trace
  PutLe(&payload, 9, 8);  // trace_id; every other fixed field is zero
  payload.append(112 - 8, '\0');
  payload.append(12, '\0');  // reserved block
  PutLe(&payload, 0x44, 8);
  PutLe(&payload, 0x55, 8);
  PutLe(&payload, 0, 4);  // no span trees
  PutLe(&payload, 0, 4);  // no profile text
  want.clear();
  PutFrameHeader(&want, FrameType::kStatsResponse, 42, payload.size());
  want += payload;
  got.clear();
  AppendStatsResponseFrame(42, resp, &got);
  EXPECT_EQ(got, want);
}

TEST(ProtocolTest, StatsRequestRoundTripsSpanAndProfileFields) {
  StatsRequest req;
  req.max_traces = 5;
  req.slow_only = true;
  req.include_spans = true;
  req.profile_op = kProfileArm;
  req.profile_hz = 250;
  std::string buffer;
  AppendStatsRequestFrame(16, req, &buffer);
  const std::vector<RawFrame> frames = SplitFrames(buffer);
  ASSERT_EQ(frames.size(), 1u);
  StatsRequest out;
  ASSERT_TRUE(DecodeStatsRequestPayload(Bytes(frames[0].payload),
                                        frames[0].payload.size(), &out)
                  .ok());
  EXPECT_EQ(out.max_traces, 5u);
  EXPECT_TRUE(out.slow_only);
  EXPECT_TRUE(out.include_spans);
  EXPECT_EQ(out.profile_op, kProfileArm);
  EXPECT_EQ(out.profile_hz, 250u);

  // A pre-tracing client stops after slow_only: the §12 fields must
  // default off, never error.
  constexpr size_t kStatsTrailing =
      2 * sizeof(uint8_t) + sizeof(uint32_t);
  const std::string legacy = frames[0].payload.substr(
      0, frames[0].payload.size() - kStatsTrailing);
  StatsRequest legacy_out;
  ASSERT_TRUE(
      DecodeStatsRequestPayload(Bytes(legacy), legacy.size(), &legacy_out)
          .ok());
  EXPECT_EQ(legacy_out.max_traces, 5u);
  EXPECT_TRUE(legacy_out.slow_only);
  EXPECT_FALSE(legacy_out.include_spans);
  EXPECT_EQ(legacy_out.profile_op, kProfileNone);
  EXPECT_EQ(legacy_out.profile_hz, 0u);
}

TEST(ProtocolTest, ResponseEchoesTraceIdAndToleratesLegacyAbsence) {
  ServiceResponse resp = MakeResponse(4, 0);
  resp.trace_hi = 0xaaaabbbbccccddddULL;
  resp.trace_lo = 0x1111222233334444ULL;
  std::string buffer;
  AppendResponseFrames(21, resp, &buffer, 2);
  const std::vector<RawFrame> frames = SplitFrames(buffer);
  ASSERT_GE(frames.size(), 2u);  // 4 neighbors at 2/frame
  ResponseAssembler assembler;
  for (size_t i = 0; i < frames.size(); ++i) {
    ASSERT_TRUE(assembler
                    .Add(Bytes(frames[i].payload), frames[i].payload.size(),
                         (frames[i].header.flags & kFlagFinal) != 0)
                    .ok());
  }
  ASSERT_TRUE(assembler.complete());
  ServiceResponse out = assembler.Take();
  EXPECT_EQ(out.trace_hi, resp.trace_hi);
  EXPECT_EQ(out.trace_lo, resp.trace_lo);

  // A pre-tracing server's final chunk stops before the echo; absence
  // decodes as zeros.
  ResponseAssembler legacy;
  for (size_t i = 0; i < frames.size(); ++i) {
    std::string payload = frames[i].payload;
    const bool final_chunk = (frames[i].header.flags & kFlagFinal) != 0;
    if (final_chunk) {
      payload = payload.substr(0, payload.size() - kTraceIdRecordBytes);
    }
    ASSERT_TRUE(
        legacy.Add(Bytes(payload), payload.size(), final_chunk).ok());
  }
  ASSERT_TRUE(legacy.complete());
  ServiceResponse legacy_out = legacy.Take();
  EXPECT_EQ(legacy_out.trace_hi, 0u);
  EXPECT_EQ(legacy_out.trace_lo, 0u);
}

TEST(ProtocolTest, InfoFeatureFlagsRoundTripAndLegacyDecode) {
  ServerInfo info;
  info.feature_flags = kFeatureStats;
  std::string buffer;
  AppendInfoResponseFrame(2, info, &buffer);
  const std::vector<RawFrame> frames = SplitFrames(buffer);
  ASSERT_EQ(frames.size(), 1u);
  ServerInfo out;
  ASSERT_TRUE(DecodeInfoResponsePayload(Bytes(frames[0].payload),
                                        frames[0].payload.size(), &out)
                  .ok());
  EXPECT_EQ(out.feature_flags, kFeatureStats);

  // A pre-stats server's payload stops before the trailing flags word;
  // the tolerant decode must yield 0, not an error (minor-feature
  // evolution without a wire version break).
  const std::string legacy = frames[0].payload.substr(
      0, frames[0].payload.size() - sizeof(uint32_t));
  ServerInfo legacy_out;
  ASSERT_TRUE(
      DecodeInfoResponsePayload(Bytes(legacy), legacy.size(), &legacy_out)
          .ok());
  EXPECT_EQ(legacy_out.feature_flags, 0u);
}

TEST(ProtocolTest, StatsResponseRejectsOversizedTraceCount) {
  // A header announcing kMaxWireTraces+1 traces in a short payload must
  // hit the cap check, not attempt the reserve.
  std::string payload;
  for (int i = 0; i < 4; ++i) payload.push_back(0);  // empty text
  const uint32_t huge = kMaxWireTraces + 1;
  for (int i = 0; i < 4; ++i) {
    payload.push_back(static_cast<char>(huge >> (8 * i)));
  }
  StatsResponse out;
  const Status st =
      DecodeStatsResponsePayload(Bytes(payload), payload.size(), &out);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("cap"), std::string::npos);
}

void ExpectResponsesEqual(const ServiceResponse& a,
                          const ServiceResponse& b) {
  ASSERT_EQ(a.neighbors.size(), b.neighbors.size());
  for (size_t i = 0; i < a.neighbors.size(); ++i) {
    EXPECT_EQ(a.neighbors[i].id, b.neighbors[i].id);
    EXPECT_EQ(a.neighbors[i].distance, b.neighbors[i].distance);
  }
  EXPECT_EQ(a.ids, b.ids);
  EXPECT_EQ(a.cache_hit, b.cache_hit);
  EXPECT_EQ(a.generation, b.generation);
  EXPECT_EQ(a.latency_seconds, b.latency_seconds);
  EXPECT_EQ(a.cost.cpu_seconds, b.cost.cpu_seconds);
  EXPECT_EQ(a.cost.io.page_accesses(), b.cost.io.page_accesses());
  EXPECT_EQ(a.cost.io.bytes_read(), b.cost.io.bytes_read());
  EXPECT_EQ(a.cost.candidates_refined, b.cost.candidates_refined);
}

TEST(ProtocolTest, SingleFrameResponseRoundTrips) {
  const ServiceResponse resp = MakeResponse(5, 3);
  std::string buffer;
  AppendResponseFrames(4, resp, &buffer);
  const std::vector<RawFrame> frames = SplitFrames(buffer);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].header.flags & kFlagFinal, kFlagFinal);
  ResponseAssembler assembler;
  ASSERT_TRUE(assembler
                  .Add(Bytes(frames[0].payload), frames[0].payload.size(),
                       true)
                  .ok());
  ASSERT_TRUE(assembler.complete());
  ExpectResponsesEqual(assembler.Take(), resp);
}

TEST(ProtocolTest, ChunkedResponseStreamsAndReassembles) {
  // 23 neighbors + 11 ids at 4 results per frame: 6 chunks, uneven tail.
  const ServiceResponse resp = MakeResponse(23, 11);
  std::string buffer;
  AppendResponseFrames(4, resp, &buffer, 4);
  const std::vector<RawFrame> frames = SplitFrames(buffer);
  ASSERT_EQ(frames.size(), 6u);
  ResponseAssembler assembler;
  for (size_t i = 0; i < frames.size(); ++i) {
    EXPECT_FALSE(assembler.complete());
    const bool final_chunk = (frames[i].header.flags & kFlagFinal) != 0;
    EXPECT_EQ(final_chunk, i + 1 == frames.size());
    ASSERT_TRUE(assembler
                    .Add(Bytes(frames[i].payload),
                         frames[i].payload.size(), final_chunk)
                    .ok());
  }
  ASSERT_TRUE(assembler.complete());
  ExpectResponsesEqual(assembler.Take(), resp);
}

TEST(ProtocolTest, EmptyResponseStillProducesAFinalFrame) {
  std::string buffer;
  AppendResponseFrames(1, ServiceResponse{}, &buffer);
  const std::vector<RawFrame> frames = SplitFrames(buffer);
  ASSERT_EQ(frames.size(), 1u);
  ResponseAssembler assembler;
  ASSERT_TRUE(assembler
                  .Add(Bytes(frames[0].payload), frames[0].payload.size(),
                       true)
                  .ok());
  EXPECT_TRUE(assembler.complete());
}

// --- golden wire bytes -----------------------------------------------
//
// Byte-exact frames, recorded from the field-by-field encoders that
// preceded the in-place ones: every encoder must keep reproducing them.
// The round trips above would pass a symmetric change to encoder and
// decoder; these do not.

std::string Hex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (const char c : bytes) {
    const auto b = static_cast<uint8_t>(c);
    hex.push_back(kDigits[b >> 4]);
    hex.push_back(kDigits[b & 15]);
  }
  return hex;
}

struct GoldenFrame {
  const char* name;
  const char* expected;  // hex, as recorded
  std::function<void(std::string*)> append;
};

std::vector<GoldenFrame> GoldenFrames() {
  std::vector<GoldenFrame> frames;
  auto encode = [&frames](const char* name, const char* expected,
                          std::function<void(std::string*)> append) {
    frames.push_back({name, expected, std::move(append)});
  };
  ServiceRequest stored;
  stored.kind = QueryKind::kKnn;
  stored.strategy = QueryStrategy::kVectorSetFilter;
  stored.object_id = 17;
  stored.options.k = 10;
  stored.options.timeout_seconds = 0.25;
  stored.trace = {0x0102030405060708ULL, 0x1112131415161718ULL, 0x2122ULL};
  encode("stored-id request",
         "56534e500100010105000000000000003800000000010000110000000a000000"
         "0000000000000000000000000000d03f00000000080706050403020118171615"
         "141312112221000000000000",
         [=](std::string* out) { AppendRequestFrame(5, stored, out); });
  ServiceRequest external;
  external.kind = QueryKind::kInvariantRange;
  external.strategy = QueryStrategy::kVectorSetFilter;
  external.object_id = -1;
  external.options.eps = 0.5;
  external.with_reflections = true;
  external.query.vector_set.vectors = {{0.25, -1.5, 3.0}, {1e-3, 2.0, 0.0}};
  external.query.centroid = {0.125, 0.75, 1.5, 2.0};
  external.query.cover_vector = {1.0, 2.0, 4.0, 8.0, -0.0, 0.1};
  encode("external-query request",
         "56534e50010001010600000000000000cc00000003010101ffffffff0a000000"
         "000000000000e03f00000000000000000200000003000000000000000000d03f"
         "000000000000f8bf000000000000084003000000fca9f1d24d62503f00000000"
         "00000040000000000000000004000000000000000000c03f000000000000e83f"
         "000000000000f83f000000000000004006000000000000000000f03f00000000"
         "000000400000000000001040000000000000204000000000000000809a999999"
         "9999b93f00000000000000000000000000000000000000000000000000000000",
         [=](std::string* out) { AppendRequestFrame(6, external, out); });
  ServiceResponse one;
  one.cache_hit = true;
  one.generation = 9;
  one.latency_seconds = 2.5e-5;
  one.cost.cpu_seconds = 1.25e-4;
  one.cost.io.AddPageAccesses(3);
  one.cost.io.AddBytesRead(12288);
  one.cost.candidates_refined = 14;
  one.neighbors = {{4, 0.0}, {19, 0.5}, {7, 1.75}};
  one.ids = {2, 40};
  one.trace_hi = 0xa1a2a3a4a5a6a7a8ULL;
  one.trace_lo = 0xb1b2b3b4b5b6b7b8ULL;
  encode("one-frame response",
         "56534e500100020107000000000000007d0000000109000000000000002d431c"
         "ebe236fa3efca9f1d24d62203f030000000000000000300000000000000e0000"
         "0000000000030000000200000003000000040000000000000000000000130000"
         "00000000000000e03f07000000000000000000fc3f0200000002000000280000"
         "00a8a7a6a5a4a3a2a1b8b7b6b5b4b3b2b1",
         [=](std::string* out) { AppendResponseFrames(7, one, out); });
  ServiceResponse three = one;
  three.cache_hit = false;
  three.ids.clear();
  three.neighbors.clear();
  for (int i = 0; i < 10; ++i) {
    three.neighbors.push_back({100 + 3 * i, 0.125 * i});
  }
  encode("three-frame response",
         "56534e50010002000800000000000000710000000009000000000000002d431c"
         "ebe236fa3efca9f1d24d62203f030000000000000000300000000000000e0000"
         "00000000000a0000000000000004000000640000000000000000000000670000"
         "00000000000000c03f6a000000000000000000d03f6d000000000000000000d8"
         "3f0000000056534e500100020008000000000000003800000004000000700000"
         "00000000000000e03f73000000000000000000e43f76000000000000000000e8"
         "3f79000000000000000000ec3f0000000056534e500100020108000000000000"
         "0030000000020000007c000000000000000000f03f7f000000000000000000f2"
         "3f00000000a8a7a6a5a4a3a2a1b8b7b6b5b4b3b2b1",
         [=](std::string* out) { AppendResponseFrames(8, three, out, 4); });
  encode("status frame",
         "56534e500100030109000000000000000f000000080a00000071756575652066"
         "756c6c",
         [](std::string* out) {
           AppendStatusFrame(9, Status::Unavailable("queue full"), out);
         });
  encode("info request",
         "56534e50010004010a0000000000000000000000",
         [](std::string* out) { AppendInfoRequestFrame(10, out); });
  ServerInfo info;
  info.generation = 3;
  info.object_count = 2000;
  info.num_covers = 7;
  info.cover_resolution = 15;
  info.histogram_cells = 6;
  info.histogram_resolution = 30;
  info.extract_histograms = true;
  info.cover_search = CoverSequenceOptions::Search::kBeam;
  info.feature_flags = kFeatureStats;
  encode("info response",
         "56534e50010005010a00000000000000270000000300000000000000d0070000"
         "00000000070000000f000000060000001e00000001000201000000",
         [=](std::string* out) { AppendInfoResponseFrame(10, info, out); });
  StatsRequest stats_request;
  stats_request.max_traces = 2;
  stats_request.include_spans = true;
  stats_request.profile_op = kProfileArm;
  stats_request.profile_hz = 250;
  encode("stats request",
         "56534e50010006010b000000000000000b00000002000000000101fa000000",
         [=](std::string* out) {
           AppendStatsRequestFrame(11, stats_request, out);
         });
  StatsResponse stats;
  stats.metrics_text = "vsim_requests_completed_total 3\n";
  stats.traces.push_back(MakeTrace(55));
  // Recorded while strategy 3 was the M-tree: the encoder writes a
  // trace's strategy byte as given, and only the decoder rejects it.
  stats.traces[0].strategy = 3;
  stats.traces[0].trace_hi = 0x0102030405060708ULL;
  stats.traces[0].trace_lo = 0x1112131415161718ULL;
  obs::SpanTreeRecord tree{};
  tree.summary.trace_hi = 0x0102030405060708ULL;
  tree.summary.trace_lo = 0x1112131415161718ULL;
  tree.summary.trace_id = 55;
  tree.span_count = 2;
  tree.spans_dropped = 1;
  tree.spans[0] = {77, 0, 1000, 9000, 12,
                   static_cast<uint8_t>(obs::SpanName::kRequest), {}};
  tree.spans[1] = {78, 77, 2000, 4000, 5,
                   static_cast<uint8_t>(obs::SpanName::kFilter), {}};
  stats.span_trees.push_back(tree);
  stats.profile_text = "main;Worker 17\n";
  encode("stats response",
         "56534e50010007010b000000000000003d010000200000007673696d5f726571"
         "75657374735f636f6d706c657465645f746f74616c20330a0100000037000000"
         "000000000300000000000000020301090a000000000000000000e03ffca9f1d2"
         "4d62503f9a9999999999993f7b14ae47e17a943ffca9f1d24d62703ffca9f1d2"
         "4d62903f25000000000000000c000000000000000c0000000000000058000000"
         "0000000000100000000000000000000000000000000000000807060504030201"
         "1817161514131211010000000807060504030201181716151413121137000000"
         "0000000002000000010000004d000000000000000000000000000000e8030000"
         "0000000028230000000000000c00000000000000004e000000000000004d0000"
         "0000000000d007000000000000a00f0000000000000500000000000000060f00"
         "00006d61696e3b576f726b65722031370a",
         [=](std::string* out) { AppendStatsResponseFrame(11, stats, out); });
  return frames;
}

TEST(ProtocolTest, EncodersReproduceGoldenWireBytes) {
  for (const GoldenFrame& frame : GoldenFrames()) {
    std::string bytes;
    frame.append(&bytes);
    EXPECT_EQ(Hex(bytes), frame.expected) << frame.name;
  }
}

// Each encoder appends to what the buffer already holds: encoded into
// one buffer, the frames are the golden frames back to back, every
// length patched at its own frame's offset.
TEST(ProtocolTest, EncodersAppendGoldenFramesBackToBack) {
  std::string buffer = "prefix";
  std::string expected = Hex(buffer);
  for (const GoldenFrame& frame : GoldenFrames()) {
    frame.append(&buffer);
    expected += frame.expected;
  }
  EXPECT_EQ(Hex(buffer), expected);
}

// --- structural violations -------------------------------------------

TEST(ProtocolTest, AssemblerRejectsChunkAfterFinal) {
  const ServiceResponse resp = MakeResponse(2, 0);
  std::string buffer;
  AppendResponseFrames(4, resp, &buffer);
  const std::vector<RawFrame> frames = SplitFrames(buffer);
  ResponseAssembler assembler;
  ASSERT_TRUE(assembler
                  .Add(Bytes(frames[0].payload), frames[0].payload.size(),
                       true)
                  .ok());
  EXPECT_FALSE(assembler
                   .Add(Bytes(frames[0].payload),
                        frames[0].payload.size(), true)
                   .ok());
}

TEST(ProtocolTest, AssemblerRejectsShortTotalsOnFinalChunk) {
  // Announce 23 neighbors but mark the first 4-entry chunk final.
  const ServiceResponse resp = MakeResponse(23, 0);
  std::string buffer;
  AppendResponseFrames(4, resp, &buffer, 4);
  const std::vector<RawFrame> frames = SplitFrames(buffer);
  ASSERT_GT(frames.size(), 1u);
  ResponseAssembler assembler;
  const Status premature = assembler.Add(
      Bytes(frames[0].payload), frames[0].payload.size(), true);
  EXPECT_FALSE(premature.ok());
  EXPECT_FALSE(assembler.complete());
}

TEST(ProtocolTest, VersionMismatchNamesBothVersions) {
  std::string buffer;
  AppendStatusFrame(1, Status::Internal("x"), &buffer);
  buffer[4] = 9;  // version field low byte
  FrameHeader header;
  const Status st =
      DecodeFrameHeader(Bytes(buffer), kFrameHeaderBytes, &header);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kUnimplemented);
  EXPECT_NE(st.message().find("version 9"), std::string::npos);
  EXPECT_NE(st.message().find("version " + std::to_string(kWireVersion)),
            std::string::npos);
}

TEST(ProtocolTest, HeaderRejectsBadMagicTypeAndFlags) {
  std::string valid;
  AppendInfoRequestFrame(1, &valid);
  FrameHeader header;

  std::string bad = valid;
  bad[0] = 'X';
  EXPECT_FALSE(DecodeFrameHeader(Bytes(bad), kFrameHeaderBytes, &header).ok());

  bad = valid;
  bad[6] = 0;  // frame type below the valid range
  EXPECT_FALSE(DecodeFrameHeader(Bytes(bad), kFrameHeaderBytes, &header).ok());
  bad[6] = 8;  // above it
  EXPECT_FALSE(DecodeFrameHeader(Bytes(bad), kFrameHeaderBytes, &header).ok());

  bad = valid;
  bad[7] = static_cast<char>(0x80);  // unknown flag bit
  EXPECT_FALSE(DecodeFrameHeader(Bytes(bad), kFrameHeaderBytes, &header).ok());
}

TEST(ProtocolTest, OversizedCountsAreRejectedBeforeAllocation) {
  // A request announcing kMaxWireVectors+1 vectors in a tiny payload
  // must be rejected by the cap check, not by attempting the resize.
  std::string payload;
  payload.push_back(0);  // kind
  payload.push_back(0);  // strategy
  payload.push_back(0);  // with_reflections
  payload.push_back(1);  // has_query
  for (int i = 0; i < 4; ++i) payload.push_back('\xff');  // object_id = -1
  for (int i = 0; i < 4; ++i) payload.push_back(0);       // k
  for (int i = 0; i < 16; ++i) payload.push_back(0);      // eps + timeout
  const uint32_t huge = kMaxWireVectors + 1;
  for (int i = 0; i < 4; ++i) {
    payload.push_back(static_cast<char>(huge >> (8 * i)));
  }
  ServiceRequest out;
  const Status st =
      DecodeRequestPayload(Bytes(payload), payload.size(), &out);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("cap"), std::string::npos);
}

// --- malformed-frame corpus ------------------------------------------

// Decodes one complete frame buffer the way the server does: header
// first, then the matching payload decoder. Any Status is fine; crashes
// and hangs are not.
void ExerciseFrameBytes(const uint8_t* data, size_t size) {
  FrameHeader header;
  if (size < kFrameHeaderBytes) {
    (void)DecodeFrameHeader(data, size, &header);
    return;
  }
  if (!DecodeFrameHeader(data, kFrameHeaderBytes, &header).ok()) return;
  const uint8_t* payload = data + kFrameHeaderBytes;
  const size_t payload_size =
      std::min<size_t>(header.payload_bytes, size - kFrameHeaderBytes);
  switch (header.type) {
    case FrameType::kRequest: {
      ServiceRequest req;
      (void)DecodeRequestPayload(payload, payload_size, &req);
      break;
    }
    case FrameType::kStatus: {
      Status st;
      (void)DecodeStatusPayload(payload, payload_size, &st);
      break;
    }
    case FrameType::kInfoResponse: {
      ServerInfo info;
      (void)DecodeInfoResponsePayload(payload, payload_size, &info);
      break;
    }
    case FrameType::kResponse: {
      ResponseAssembler assembler;
      (void)assembler.Add(payload, payload_size,
                          (header.flags & kFlagFinal) != 0);
      break;
    }
    case FrameType::kStatsRequest: {
      StatsRequest req;
      (void)DecodeStatsRequestPayload(payload, payload_size, &req);
      break;
    }
    case FrameType::kStatsResponse: {
      StatsResponse resp;
      (void)DecodeStatsResponsePayload(payload, payload_size, &resp);
      break;
    }
    case FrameType::kInfoRequest:
      break;  // no payload to decode
  }
}

std::vector<std::string> CorpusFrames() {
  std::vector<std::string> frames;
  frames.emplace_back();
  AppendRequestFrame(3, MakeExternalRequest(), &frames.back());
  frames.emplace_back();
  {
    ServiceRequest by_id;
    by_id.object_id = 5;
    AppendRequestFrame(4, by_id, &frames.back());
  }
  frames.emplace_back();
  AppendStatusFrame(5, Status::DeadlineExceeded("too slow"), &frames.back());
  frames.emplace_back();
  AppendInfoResponseFrame(6, ServerInfo{}, &frames.back());
  frames.emplace_back();
  AppendResponseFrames(7, MakeResponse(9, 4), &frames.back(), 3);
  frames.emplace_back();
  {
    StatsRequest stats_req;
    stats_req.max_traces = 8;
    AppendStatsRequestFrame(8, stats_req, &frames.back());
  }
  frames.emplace_back();
  {
    StatsResponse stats_resp;
    stats_resp.metrics_text = "vsim_requests_completed_total 3\n";
    stats_resp.traces.push_back(MakeTrace(55));
    AppendStatsResponseFrame(9, stats_resp, &frames.back());
  }
  return frames;
}

TEST(ProtocolCorpusTest, TruncationsAtEveryLengthFailCleanly) {
  for (const std::string& valid : CorpusFrames()) {
    for (size_t len = 0; len <= valid.size(); ++len) {
      ExerciseFrameBytes(Bytes(valid), len);
    }
  }
}

TEST(ProtocolCorpusTest, BitFlipsEverywhereFailCleanly) {
  for (const std::string& valid : CorpusFrames()) {
    for (size_t pos = 0; pos < valid.size(); ++pos) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string mutated = valid;
        mutated[pos] = static_cast<char>(mutated[pos] ^ (1 << bit));
        ExerciseFrameBytes(Bytes(mutated), mutated.size());
      }
    }
  }
}

TEST(ProtocolCorpusTest, RandomGarbageFailsCleanly) {
  Rng rng(1234);
  for (int trial = 0; trial < 200; ++trial) {
    std::string garbage(rng.NextBounded(256), '\0');
    for (char& c : garbage) {
      c = static_cast<char>(rng.NextBounded(256));
    }
    ExerciseFrameBytes(Bytes(garbage), garbage.size());
  }
}

}  // namespace
}  // namespace vsim::net
