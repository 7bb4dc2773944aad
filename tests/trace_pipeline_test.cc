// End-to-end acceptance test for wire-propagated span tracing
// (docs/OBSERVABILITY.md "Tracing", docs/PROTOCOL.md §12): a remote
// query carries a client-generated 16-byte trace id over the wire; the
// server publishes net-layer (accept/decode/encode/flush) and
// service-layer (request/queue/filter/refine) span trees under that
// id; `vsim stats`-style pulls return them; and the Chrome trace-event
// export nests the full pipeline for that trace id.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "vsim/data/dataset.h"
#include "vsim/net/client.h"
#include "vsim/net/protocol.h"
#include "vsim/net/server.h"
#include "vsim/obs/span.h"
#include "vsim/obs/trace_export.h"
#include "vsim/service/db_snapshot.h"

namespace vsim::net {
namespace {

class TracePipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const Dataset ds = MakeCarDataset(20, 7);
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

  static CadDatabase* db_;
};

CadDatabase* TracePipelineTest::db_ = nullptr;

// Collects the spans of every tree carrying `trace` into one set of
// span names (the cross-layer view the exporter renders).
std::set<uint8_t> SpanNamesForTrace(
    const std::vector<obs::SpanTreeRecord>& trees,
    const obs::TraceContext& trace) {
  std::set<uint8_t> names;
  for (const obs::SpanTreeRecord& tree : trees) {
    if (tree.summary.trace_hi != trace.trace_hi ||
        tree.summary.trace_lo != trace.trace_lo) {
      continue;
    }
    const uint32_t count =
        std::min<uint32_t>(tree.span_count, obs::kSpanArenaCapacity);
    for (uint32_t i = 0; i < count; ++i) names.insert(tree.spans[i].name);
  }
  return names;
}

TEST_F(TracePipelineTest, RemoteQueryPropagatesTraceAcrossAllLayers) {
  QueryServiceOptions sopts;
  sopts.cache_bytes = 0;  // a cache hit would skip the engine spans
  auto service = std::make_unique<QueryService>(
      DbSnapshot::Create(CadDatabase(*db_), 0), sopts);
  Server server(service.get());
  ASSERT_TRUE(server.Start().ok());

  StatusOr<Client> client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  ServiceRequest req;
  req.kind = QueryKind::kKnn;
  req.object_id = 2;
  req.options.k = 5;
  StatusOr<ServiceResponse> response = client->Execute(req);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->neighbors.size(), 5u);

  // The client minted the trace id (the request carried none) and the
  // server echoed it on the final response chunk.
  const obs::TraceContext trace = client->last_trace();
  ASSERT_TRUE(trace.valid());
  EXPECT_EQ(response->trace_hi, trace.trace_hi);
  EXPECT_EQ(response->trace_lo, trace.trace_lo);

  // The service-layer tree is published at completion; the net-layer
  // tree at flush, which can land just after the response reaches the
  // client -- pull stats until both layers are visible.
  StatsRequest stats_request;
  stats_request.max_traces = 8;
  stats_request.include_spans = true;
  std::set<uint8_t> names;
  StatusOr<StatsResponse> stats = Status::Internal("unset");
  for (int attempt = 0; attempt < 200; ++attempt) {
    stats = client->Stats(stats_request);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    names = SpanNamesForTrace(stats->span_trees, trace);
    if (names.count(static_cast<uint8_t>(obs::SpanName::kFlush)) > 0 &&
        names.count(static_cast<uint8_t>(obs::SpanName::kRequest)) > 0) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // The full pipeline, across both layers, under the one trace id.
  for (const obs::SpanName expected :
       {obs::SpanName::kRequest, obs::SpanName::kQueue,
        obs::SpanName::kFilter, obs::SpanName::kRefine,
        obs::SpanName::kAccept, obs::SpanName::kDecode,
        obs::SpanName::kEncode, obs::SpanName::kFlush}) {
    EXPECT_EQ(names.count(static_cast<uint8_t>(expected)), 1u)
        << "missing span " << obs::SpanNameString(expected);
  }

  // The trace row of this query carries the same id, so QueryTrace
  // rows and span trees cross-reference.
  bool trace_row_found = false;
  for (const obs::QueryTrace& t : stats->traces) {
    if (t.trace_hi == trace.trace_hi && t.trace_lo == trace.trace_lo) {
      trace_row_found = true;
      EXPECT_EQ(t.kind, static_cast<uint8_t>(QueryKind::kKnn));
    }
  }
  EXPECT_TRUE(trace_row_found);

  // The Chrome export nests the pipeline for that trace id: the trace's
  // synthetic thread appears once, and every span name above renders as
  // a complete ("ph":"X") event.
  std::vector<obs::SpanTreeRecord> ours;
  for (const obs::SpanTreeRecord& tree : stats->span_trees) {
    if (tree.summary.trace_hi == trace.trace_hi &&
        tree.summary.trace_lo == trace.trace_lo) {
      ours.push_back(tree);
    }
  }
  ASSERT_GE(ours.size(), 2u);  // net-layer + service-layer trees
  const std::string json = obs::RenderChromeTrace(ours);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  for (const char* name : {"request", "queue", "filter", "refine",
                           "accept", "decode", "encode", "flush"}) {
    EXPECT_NE(json.find("\"name\":\"" + std::string(name) + "\""),
              std::string::npos)
        << "export missing span " << name;
  }

  server.Stop();
}

TEST_F(TracePipelineTest, CallerProvidedTraceContextIsPreserved) {
  auto service = std::make_unique<QueryService>(
      DbSnapshot::Create(CadDatabase(*db_), 0), QueryServiceOptions{});
  Server server(service.get());
  ASSERT_TRUE(server.Start().ok());
  StatusOr<Client> client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  ServiceRequest req;
  req.kind = QueryKind::kKnn;
  req.object_id = 1;
  req.options.k = 3;
  req.trace.trace_hi = 0xabcdef0102030405ULL;
  req.trace.trace_lo = 0x060708090a0b0c0dULL;
  req.trace.parent_span_id = 0x1234;
  StatusOr<ServiceResponse> response = client->Execute(req);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  // No minting when the caller supplied a context: the wire echo and
  // last_trace() both carry the caller's id (distributed-trace
  // continuation, not a fresh root).
  EXPECT_EQ(client->last_trace().trace_hi, req.trace.trace_hi);
  EXPECT_EQ(response->trace_hi, req.trace.trace_hi);
  EXPECT_EQ(response->trace_lo, req.trace.trace_lo);
  server.Stop();
}

}  // namespace
}  // namespace vsim::net
