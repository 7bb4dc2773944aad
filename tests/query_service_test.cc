#include "vsim/service/query_service.h"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "vsim/data/dataset.h"
#include "vsim/net/protocol.h"

namespace vsim {
namespace {

class QueryServiceTest : public ::testing::Test {
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
    engine_ = new QueryEngine(db_);
  }
  static void TearDownTestSuite() {
    delete engine_;
    engine_ = nullptr;
    delete db_;
    db_ = nullptr;
  }

  static CadDatabase* db_;
  static QueryEngine* engine_;
};

CadDatabase* QueryServiceTest::db_ = nullptr;
QueryEngine* QueryServiceTest::engine_ = nullptr;

// SubmitWithCallback with the result handed over through a future, so
// a test can hold requests queued and collect their outcomes later.
// The callback shares the promise, so its state outlives set_value.
StatusOr<std::future<StatusOr<ServiceResponse>>> SubmitForFuture(
    QueryService& service, ServiceRequest request) {
  auto done = std::make_shared<std::promise<StatusOr<ServiceResponse>>>();
  std::future<StatusOr<ServiceResponse>> result = done->get_future();
  VSIM_RETURN_NOT_OK(service.SubmitWithCallback(
      std::move(request), [done](StatusOr<ServiceResponse> response) {
        done->set_value(std::move(response));
      }));
  return result;
}

// The tentpole correctness claim: many threads hammering the service
// produce exactly the single-threaded engine's answers, with the cache
// on (hits must replay identical payloads) and off.
TEST_F(QueryServiceTest, StressMatchesSerialEngine) {
  const int n = static_cast<int>(db_->size());
  const int k = 5;
  // Serial ground truth per query id, plus a range result per id.
  std::vector<std::vector<Neighbor>> expected_knn(n);
  std::vector<std::vector<int>> expected_range(n);
  const double eps =
      engine_->Knn(QueryStrategy::kVectorSetScan, 0, k).back().distance;
  for (int id = 0; id < n; ++id) {
    expected_knn[id] = engine_->Knn(QueryStrategy::kVectorSetFilter, id, k);
    expected_range[id] =
        engine_->Range(QueryStrategy::kVectorSetFilter, db_->object(id), eps);
  }

  for (const size_t cache_bytes : {size_t{0}, size_t{4} << 20}) {
    QueryServiceOptions options;
    options.num_threads = 4;
    options.cache_bytes = cache_bytes;
    QueryService service(db_, engine_, options);

    constexpr int kClients = 8;
    constexpr int kPerClient = 60;
    std::vector<std::thread> clients;
    std::atomic<int> mismatches{0};
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c]() {
        for (int q = 0; q < kPerClient; ++q) {
          const int id = (c * 31 + q * 7) % n;
          ServiceRequest request;
          request.object_id = id;
          if (q % 3 == 0) {
            request.kind = QueryKind::kRange;
            request.options.eps = eps;
          } else {
            request.kind = QueryKind::kKnn;
            request.options.k = k;
          }
          StatusOr<ServiceResponse> response = service.Execute(request);
          if (!response.ok()) {
            mismatches.fetch_add(1, std::memory_order_seq_cst);
            continue;
          }
          const bool match = q % 3 == 0
                                 ? response->ids == expected_range[id]
                                 : response->neighbors == expected_knn[id];
          if (!match) mismatches.fetch_add(1, std::memory_order_seq_cst);
        }
      });
    }
    for (auto& client : clients) client.join();
    EXPECT_EQ(mismatches.load(std::memory_order_seq_cst), 0)
        << "cache_bytes=" << cache_bytes;
    const ServiceStatsSnapshot stats = service.Stats();
    EXPECT_EQ(stats.completed,
              static_cast<uint64_t>(kClients) * kPerClient);
    EXPECT_EQ(stats.rejected, 0u);
    if (cache_bytes > 0) {
      // 480 requests over <= 60 distinct (id, kind) pairs: mostly hits.
      EXPECT_GT(stats.cache.hits, 0u);
    }
  }
}

TEST_F(QueryServiceTest, CacheHitReplaysResultWithoutCost) {
  QueryServiceOptions options;
  options.num_threads = 1;
  QueryService service(db_, engine_, options);
  ServiceRequest request;
  request.object_id = 3;
  request.options.k = 4;
  StatusOr<ServiceResponse> first = service.Execute(request);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->cache_hit);
  EXPECT_GT(first->cost.candidates_refined, 0u);
  StatusOr<ServiceResponse> second = service.Execute(request);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cache_hit);
  EXPECT_EQ(second->cost.candidates_refined, 0u);
  EXPECT_EQ(second->neighbors, first->neighbors);
  EXPECT_EQ(service.Stats().cache.hits, 1u);
}

TEST_F(QueryServiceTest, BackpressureRejectsBeyondBound) {
  QueryServiceOptions options;
  options.num_threads = 1;
  options.max_queue = 2;
  QueryService service(db_, engine_, options);
  service.Pause();  // nothing dequeues: submissions stay in the queue

  ServiceRequest request;
  request.object_id = 0;
  request.options.k = 3;
  auto first = SubmitForFuture(service, request);
  auto second = SubmitForFuture(service, request);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  auto third = SubmitForFuture(service, request);
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(service.Stats().rejected, 1u);

  service.Resume();
  EXPECT_TRUE(first.value().get().ok());
  EXPECT_TRUE(second.value().get().ok());
  // With the queue drained, admission opens up again.
  auto fourth = SubmitForFuture(service, request);
  ASSERT_TRUE(fourth.ok());
  EXPECT_TRUE(fourth.value().get().ok());
}

TEST_F(QueryServiceTest, ExpiredDeadlineFailsFast) {
  QueryServiceOptions options;
  options.num_threads = 1;
  QueryService service(db_, engine_, options);
  service.Pause();
  ServiceRequest request;
  request.object_id = 0;
  request.options.k = 3;
  request.options.timeout_seconds = 1e-3;
  auto submitted = SubmitForFuture(service, request);
  ASSERT_TRUE(submitted.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  service.Resume();
  const StatusOr<ServiceResponse> response = submitted.value().get();
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(service.Stats().timed_out, 1u);
  EXPECT_EQ(service.Stats().completed, 0u);
}

TEST_F(QueryServiceTest, GenerousDeadlineSucceeds) {
  QueryService service(db_, engine_, {});
  ServiceRequest request;
  request.object_id = 1;
  request.options.k = 3;
  request.options.timeout_seconds = 30.0;
  const StatusOr<ServiceResponse> response = service.Execute(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->neighbors.size(), 3u);
  EXPECT_GT(response->latency_seconds, 0.0);
}

TEST_F(QueryServiceTest, InvariantKnnMatchesEngine) {
  QueryServiceOptions options;
  options.num_threads = 2;
  QueryService service(db_, engine_, options);
  const std::vector<Neighbor> expected = engine_->InvariantKnn(
      QueryStrategy::kVectorSetFilter, db_->object(2), 3, false);
  ServiceRequest request;
  request.kind = QueryKind::kInvariantKnn;
  request.object_id = 2;
  request.options.k = 3;
  const StatusOr<ServiceResponse> response = service.Execute(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->neighbors, expected);
}

TEST_F(QueryServiceTest, ExternalQueryMatchesStoredObject) {
  QueryService service(db_, engine_, {});
  ServiceRequest by_id;
  by_id.object_id = 5;
  by_id.options.k = 4;
  ServiceRequest external;
  external.query = db_->object(5);
  external.options.k = 4;
  const StatusOr<ServiceResponse> a = service.Execute(by_id);
  const StatusOr<ServiceResponse> b = service.Execute(external);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->neighbors, b->neighbors);
  // The digest unifies the two spellings of the same query: the second
  // execution hits the entry the first one inserted.
  EXPECT_TRUE(b->cache_hit);
}

TEST_F(QueryServiceTest, ValidationErrors) {
  QueryService service(db_, engine_, {});
  ServiceRequest bad_k;
  bad_k.object_id = 0;
  bad_k.options.k = 0;
  EXPECT_EQ(service.Execute(bad_k).status().code(),
            StatusCode::kInvalidArgument);

  ServiceRequest bad_id;
  bad_id.object_id = 1000000;
  EXPECT_EQ(service.Execute(bad_id).status().code(), StatusCode::kOutOfRange);

  ServiceRequest empty_external;  // object_id < 0, empty query
  EXPECT_EQ(service.Execute(empty_external).status().code(),
            StatusCode::kInvalidArgument);

  ServiceRequest bad_invariant;
  bad_invariant.kind = QueryKind::kInvariantKnn;
  bad_invariant.strategy = QueryStrategy::kOneVectorXTree;
  bad_invariant.object_id = 0;
  EXPECT_EQ(service.Execute(bad_invariant).status().code(),
            StatusCode::kInvalidArgument);

  EXPECT_EQ(service.Stats().failed, 4u);
}

// Destruction drains: every admitted request's callback runs, even
// when the service dies with requests still queued behind in-flight
// ones. (ThreadPool is the last member, so it drains first while the
// cache/stats the tasks touch are still alive.)
TEST_F(QueryServiceTest, DestructionDrainsQueuedAndInFlightRequests) {
  std::vector<std::future<StatusOr<ServiceResponse>>> futures;
  {
    QueryServiceOptions options;
    options.num_threads = 2;
    options.cache_bytes = 0;  // every request does real work
    QueryService service(db_, engine_, options);
    for (int q = 0; q < 24; ++q) {
      ServiceRequest request;
      request.object_id = q % static_cast<int>(db_->size());
      request.options.k = 3;
      auto submitted = SubmitForFuture(service, request);
      ASSERT_TRUE(submitted.ok());
      futures.push_back(std::move(submitted).value());
    }
    // Destructor runs here with most requests still queued.
  }
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_TRUE(f.get().ok());
  }
}

// Same, but with the pool paused: nothing is in flight, everything is
// queued. The pool un-pauses on destruction and still drains.
TEST_F(QueryServiceTest, DestructionDrainsWhilePaused) {
  std::vector<std::future<StatusOr<ServiceResponse>>> futures;
  {
    QueryServiceOptions options;
    options.num_threads = 1;
    QueryService service(db_, engine_, options);
    service.Pause();
    for (int q = 0; q < 8; ++q) {
      ServiceRequest request;
      request.object_id = q;
      request.options.k = 2;
      auto submitted = SubmitForFuture(service, request);
      ASSERT_TRUE(submitted.ok());
      futures.push_back(std::move(submitted).value());
    }
  }
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_TRUE(f.get().ok());
  }
}

// Deadline expiry racing completion: with timeouts of the same order as
// execution latency, every request must resolve to exactly one of
// {completed, deadline-exceeded} -- no hangs, no double counting, and
// the stats ledger adds up.
TEST_F(QueryServiceTest, DeadlineExpiryRacesCompletionCleanly) {
  QueryServiceOptions options;
  options.num_threads = 2;
  options.cache_bytes = 0;
  QueryService service(db_, engine_, options);
  constexpr int kRequests = 120;
  std::vector<std::future<StatusOr<ServiceResponse>>> futures;
  futures.reserve(kRequests);
  for (int q = 0; q < kRequests; ++q) {
    ServiceRequest request;
    request.object_id = q % static_cast<int>(db_->size());
    request.options.k = 3;
    // Sweep timeouts through the actual latency scale (tens of us to
    // ~ms) so some expire in the queue and some complete first.
    request.options.timeout_seconds = 1e-5 * (1 + q % 200);
    auto submitted = SubmitForFuture(service, request);
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(submitted).value());
  }
  uint64_t completed = 0, timed_out = 0;
  for (auto& f : futures) {
    const StatusOr<ServiceResponse> response = f.get();
    if (response.ok()) {
      ++completed;
      EXPECT_GT(response->latency_seconds, 0.0);
    } else {
      ASSERT_EQ(response.status().code(), StatusCode::kDeadlineExceeded);
      ++timed_out;
    }
  }
  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(completed + timed_out, static_cast<uint64_t>(kRequests));
  EXPECT_EQ(stats.completed, completed);
  EXPECT_EQ(stats.timed_out, timed_out);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.submitted, static_cast<uint64_t>(kRequests));
}

TEST_F(QueryServiceTest, StatsSnapshotAndPrint) {
  QueryService service(db_, engine_, {});
  ServiceRequest request;
  request.object_id = 0;
  request.options.k = 2;
  ASSERT_TRUE(service.Execute(request).ok());
  ASSERT_TRUE(service.Execute(request).ok());
  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_GT(stats.latency_p50_s, 0.0);
  EXPECT_GE(stats.latency_p99_s, stats.latency_p50_s);
  // Smoke: the table renders without touching the service.
  std::FILE* sink = fopen("/dev/null", "w");
  ASSERT_NE(sink, nullptr);
  service.PrintStats(sink);
  fclose(sink);
}

TEST_F(QueryServiceTest, TraceRecordsPaperCountersWithLemma2Ordering) {
  // Every completed request leaves a QueryTrace in the flight recorder.
  // For the filter strategy the paper's pipeline shape must hold in the
  // counters themselves: the Lemma-2 lower bound admits filter_hits
  // candidates, the optimal multi-step loop refines a subset of them,
  // and at least k refinements are needed to certify a k-NN result.
  QueryServiceOptions options;
  options.cache_bytes = 0;
  QueryService service(db_, engine_, options);
  const int k = 5;
  ServiceRequest request;
  request.object_id = 2;
  request.options.k = k;
  request.strategy = QueryStrategy::kVectorSetFilter;
  StatusOr<ServiceResponse> response = service.Execute(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->neighbors.size(), static_cast<size_t>(k));

  const std::vector<obs::QueryTrace> traces =
      service.flight_recorder().Snapshot(1);
  ASSERT_EQ(traces.size(), 1u);
  const obs::QueryTrace& t = traces[0];
  EXPECT_EQ(t.kind, static_cast<uint8_t>(QueryKind::kKnn));
  EXPECT_EQ(t.strategy,
            static_cast<uint8_t>(QueryStrategy::kVectorSetFilter));
  EXPECT_EQ(t.k, k);
  EXPECT_EQ(t.status_code, 0);
  EXPECT_EQ(t.cache_hit, 0);
  EXPECT_EQ(t.generation, response->generation);
  // The counters count groups of equal vector sets: one refinement can
  // certify a whole answer, so only the chain holds, not refined >= k.
  EXPECT_GE(t.filter_hits, t.candidates_refined);
  EXPECT_GE(t.candidates_refined, 1u);
  // Only real Kuhn-Munkres solves count: a refinement whose row-minimum
  // bound already exceeds the current k-th distance skips the solve.
  EXPECT_LE(t.hungarian_invocations, t.candidates_refined);
  EXPECT_EQ(t.hungarian_invocations, response->cost.hungarian_invocations);
  EXPECT_EQ(t.candidates_refined, response->cost.candidates_refined);
  EXPECT_GT(t.total_seconds, 0.0);
  EXPECT_GE(t.total_seconds, t.queue_seconds + t.cpu_seconds - 1e-9);
  EXPECT_GE(t.cpu_seconds, t.refine_seconds);
  EXPECT_GT(t.refine_seconds, 0.0);

  // The same request's counters land on the registry instruments.
  const std::string text = service.metrics().TextExposition();
  EXPECT_NE(text.find("vsim_queries_total{strategy=\"filter\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("vsim_filter_hits_total " +
                      std::to_string(t.filter_hits) + "\n"),
            std::string::npos);
  EXPECT_NE(text.find("vsim_hungarian_invocations_total " +
                      std::to_string(t.hungarian_invocations) + "\n"),
            std::string::npos);
  EXPECT_NE(text.find("vsim_requests_completed_total 1\n"),
            std::string::npos);
}

TEST_F(QueryServiceTest, HungarianInvocationsCountOnlyKuhnMunkresSolves) {
  // k >= corpus size: the multi-step heap never fills, the prune
  // threshold never applies, and every refinement -- one per distinct
  // vector set -- is a solve.
  {
    QueryServiceOptions options;
    options.cache_bytes = 0;
    QueryService service(db_, engine_, options);
    ServiceRequest request;
    request.object_id = 3;
    request.options.k = static_cast<int>(db_->size());
    request.strategy = QueryStrategy::kVectorSetFilter;
    ASSERT_TRUE(service.Execute(request).ok());
    const obs::QueryTrace t = service.flight_recorder().Snapshot(1)[0];
    EXPECT_EQ(t.candidates_refined, engine_->centroid_index().entry_count());
    EXPECT_EQ(t.hungarian_invocations, t.candidates_refined);
  }
  // A duplicate-heavy corpus (every part four times over): the exact
  // copies fill the heap at distance 0 or close to it, after which the
  // row-minimum bound rules candidates out without a solve.
  Dataset ds = MakeCarDataset(10, 99);
  const std::vector<CadObject> originals = ds.objects;
  for (int copy = 1; copy < 4; ++copy) {
    ds.objects.insert(ds.objects.end(), originals.begin(), originals.end());
  }
  StatusOr<CadDatabase> dup = CadDatabase::FromDataset(ds, db_->options(), 0);
  ASSERT_TRUE(dup.ok());
  QueryServiceOptions options;
  options.cache_bytes = 0;
  QueryService service(DbSnapshot::Create(std::move(*dup), 1), options);
  uint64_t refined = 0, solves = 0;
  for (int id = 0; id < static_cast<int>(ds.size()); ++id) {
    ServiceRequest request;
    request.object_id = id;
    request.options.k = 6;
    request.strategy = QueryStrategy::kVectorSetFilter;
    ASSERT_TRUE(service.Execute(request).ok());
    const obs::QueryTrace t = service.flight_recorder().Snapshot(1)[0];
    EXPECT_LE(t.hungarian_invocations, t.candidates_refined);
    refined += t.candidates_refined;
    solves += t.hungarian_invocations;
  }
  EXPECT_LT(solves, refined);
}

TEST_F(QueryServiceTest, CompletedRequestPublishesServiceSpanTree) {
  // Every completed request publishes a service-layer span tree into
  // the span ring: a kRequest root (counter: candidates_refined) with
  // kQueue/kAdmission children and, for an engine miss, kFilter and
  // kRefine stage spans whose counters mirror the QueryTrace
  // (docs/OBSERVABILITY.md "Tracing"). A local caller without a trace
  // context still gets a minted trace id.
  QueryServiceOptions options;
  options.cache_bytes = 0;
  QueryService service(db_, engine_, options);
  ServiceRequest request;
  request.object_id = 1;
  request.options.k = 4;
  request.strategy = QueryStrategy::kVectorSetFilter;
  StatusOr<ServiceResponse> response = service.Execute(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_NE(response->trace_hi | response->trace_lo, 0u);  // minted

  const std::vector<obs::SpanTreeRecord> trees =
      service.span_ring().Snapshot(4);
  ASSERT_EQ(trees.size(), 1u);
  const obs::SpanTreeRecord& tree = trees[0];
  EXPECT_EQ(tree.trace_hi, response->trace_hi);
  EXPECT_EQ(tree.trace_lo, response->trace_lo);
  EXPECT_EQ(tree.spans_dropped, 0u);
  ASSERT_GE(tree.span_count, 4u);

  const obs::QueryTrace trace = service.flight_recorder().Snapshot(1)[0];
  EXPECT_EQ(tree.query_trace_id, trace.trace_id);
  uint64_t root_id = 0;
  bool saw_queue = false, saw_filter = false, saw_refine = false;
  for (uint32_t i = 0; i < tree.span_count; ++i) {
    const obs::SpanRecord& span = tree.spans[i];
    ASSERT_LT(span.name, obs::kNumSpanNames);
    EXPECT_GE(span.end_ns, span.start_ns);
    switch (static_cast<obs::SpanName>(span.name)) {
      case obs::SpanName::kRequest:
        root_id = span.span_id;
        EXPECT_EQ(span.counter, trace.candidates_refined);
        break;
      case obs::SpanName::kQueue:
        saw_queue = true;
        break;
      case obs::SpanName::kFilter:
        saw_filter = true;
        EXPECT_EQ(span.counter, trace.filter_hits);
        break;
      case obs::SpanName::kRefine:
        saw_refine = true;
        EXPECT_EQ(span.counter, trace.hungarian_invocations);
        break;
      default:
        break;
    }
  }
  ASSERT_NE(root_id, 0u);
  EXPECT_TRUE(saw_queue);
  EXPECT_TRUE(saw_filter);
  EXPECT_TRUE(saw_refine);
  // Children hang off the root: the tree nests.
  for (uint32_t i = 0; i < tree.span_count; ++i) {
    const obs::SpanRecord& span = tree.spans[i];
    if (span.span_id != root_id) {
      EXPECT_EQ(span.parent_span_id, root_id);
    }
  }

  // Spans ride the metric registry too.
  const std::string text = service.metrics().TextExposition();
  EXPECT_NE(text.find("vsim_span_trees_recorded_total 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("vsim_span_trees_dropped_total 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("vsim_spans_truncated_total 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("vsim_flight_recorder_slow_threshold_seconds"),
            std::string::npos);
}

TEST_F(QueryServiceTest, SpanRecordingDisabledLeavesRingEmpty) {
  QueryServiceOptions options;
  options.enable_spans = false;
  QueryService service(db_, engine_, options);
  ServiceRequest request;
  request.object_id = 0;
  request.options.k = 2;
  ASSERT_TRUE(service.Execute(request).ok());
  EXPECT_FALSE(service.spans_enabled());
  EXPECT_TRUE(service.span_ring().Snapshot(4).empty());
}

TEST_F(QueryServiceTest, CallerTraceContextFlowsToSpanTreeAndEcho) {
  QueryServiceOptions options;
  options.cache_bytes = 0;
  QueryService service(db_, engine_, options);
  ServiceRequest request;
  request.object_id = 3;
  request.options.k = 2;
  request.trace.trace_hi = 0x00c0ffee00c0ffeeULL;
  request.trace.trace_lo = 0x0badf00d0badf00dULL;
  request.trace.parent_span_id = 777;
  StatusOr<ServiceResponse> response = service.Execute(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->trace_hi, request.trace.trace_hi);
  EXPECT_EQ(response->trace_lo, request.trace.trace_lo);
  const std::vector<obs::SpanTreeRecord> trees =
      service.span_ring().Snapshot(1);
  ASSERT_EQ(trees.size(), 1u);
  EXPECT_EQ(trees[0].trace_hi, request.trace.trace_hi);
  EXPECT_EQ(trees[0].trace_lo, request.trace.trace_lo);
  // The remote parent becomes the root span's parent: the service tree
  // nests under the caller's span in the exported timeline.
  bool root_found = false;
  for (uint32_t i = 0; i < trees[0].span_count; ++i) {
    if (trees[0].spans[i].name ==
        static_cast<uint8_t>(obs::SpanName::kRequest)) {
      EXPECT_EQ(trees[0].spans[i].parent_span_id, 777u);
      root_found = true;
    }
  }
  EXPECT_TRUE(root_found);
}

TEST_F(QueryServiceTest, NanEpsRangeRequestIsRejectedWithoutCacheInsert) {
  // NaN passes an `eps < 0` check, and as a cache key it can never hit
  // (NaN != NaN), so each such request would run a full refinement and
  // leave a dead entry behind. Validation must stop it first.
  QueryServiceOptions options;
  options.cache_bytes = 4 << 20;
  QueryService service(db_, engine_, options);
  ServiceRequest request;
  request.kind = QueryKind::kRange;
  request.object_id = 3;
  request.options.eps = std::numeric_limits<double>::quiet_NaN();
  for (int attempt = 0; attempt < 3; ++attempt) {
    StatusOr<ServiceResponse> response = service.Execute(request);
    ASSERT_FALSE(response.ok());
    EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(service.cache().stats().insertions, 0u);
}

TEST_F(QueryServiceTest, TimeoutBeyondTheClockMeansNoDeadline) {
  // A timeout whose nanosecond deadline overflows uint64_t (+inf, or
  // merely huge) is no deadline at all, not an already-expired one.
  QueryServiceOptions options;
  options.cache_bytes = 0;
  QueryService service(db_, engine_, options);
  for (double timeout : {std::numeric_limits<double>::infinity(), 1e300}) {
    ServiceRequest request;
    request.object_id = 5;
    request.options.k = 3;
    request.options.timeout_seconds = timeout;
    StatusOr<ServiceResponse> response = service.Execute(request);
    ASSERT_TRUE(response.ok()) << timeout << ": "
                               << response.status().ToString();
    EXPECT_EQ(response->neighbors,
              engine_->Knn(QueryStrategy::kVectorSetFilter, 5, 3));
  }
}

TEST_F(QueryServiceTest, NonZeroReservedRequestSlotGetsTheExactAnswer) {
  // Clients from before the reserved u32 (docs/PROTOCOL.md §3) put an
  // approximate pre-filter level there (e.g. 2). The slot decodes, its
  // value is ignored, and the answer is the exact one.
  QueryServiceOptions options;
  options.cache_bytes = 0;
  QueryService service(db_, engine_, options);
  ServiceRequest request;
  request.object_id = 6;
  request.options.k = 4;
  std::string frame;
  net::AppendRequestFrame(1, request, &frame);
  // The reserved u32 sits right before the 24-byte trace block.
  const size_t slot = frame.size() - 3 * sizeof(uint64_t) - sizeof(uint32_t);
  ASSERT_EQ(frame.substr(slot, 4), std::string(4, '\0'));
  frame[slot] = 2;
  ServiceRequest decoded;
  ASSERT_TRUE(net::DecodeRequestPayload(
                  reinterpret_cast<const uint8_t*>(frame.data()) +
                      net::kFrameHeaderBytes,
                  frame.size() - net::kFrameHeaderBytes, &decoded)
                  .ok());
  StatusOr<ServiceResponse> older = service.Execute(decoded);
  StatusOr<ServiceResponse> exact = service.Execute(request);
  ASSERT_TRUE(older.ok()) << older.status().ToString();
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  EXPECT_EQ(older->neighbors, exact->neighbors);
  EXPECT_EQ(older->neighbors.size(), 4u);
}

TEST_F(QueryServiceTest, CacheHitTraceSkipsStageCounters) {
  QueryServiceOptions options;
  options.cache_bytes = 4 << 20;
  QueryService service(db_, engine_, options);
  ServiceRequest request;
  request.object_id = 1;
  request.options.k = 3;
  ASSERT_TRUE(service.Execute(request).ok());
  StatusOr<ServiceResponse> hit = service.Execute(request);
  ASSERT_TRUE(hit.ok());
  ASSERT_TRUE(hit->cache_hit);
  const std::vector<obs::QueryTrace> traces =
      service.flight_recorder().Snapshot(2);
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_EQ(traces[0].cache_hit, 1);  // newest first: the replay
  EXPECT_EQ(traces[1].cache_hit, 0);
  // Both queries count toward the strategy total, but the replay
  // charges no pipeline work: the Hungarian total reflects only the
  // first execution.
  const std::string text = service.metrics().TextExposition();
  EXPECT_NE(text.find("vsim_queries_total{strategy=\"filter\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("vsim_cache_hits_total 1\n"), std::string::npos);
  const uint64_t hungarian = traces[1].hungarian_invocations;
  EXPECT_NE(text.find("vsim_hungarian_invocations_total " +
                      std::to_string(hungarian) + "\n"),
            std::string::npos);
}

TEST_F(QueryServiceTest, SnapshotGenerationGaugeTracksSwaps) {
  QueryService service(DbSnapshot::Create(CadDatabase(*db_), 0), {});
  EXPECT_NE(service.metrics().TextExposition().find(
                "vsim_snapshot_generation 0\n"),
            std::string::npos);
  ASSERT_TRUE(
      service.SwapSnapshot(DbSnapshot::Create(CadDatabase(*db_), 7)).ok());
  EXPECT_NE(service.metrics().TextExposition().find(
                "vsim_snapshot_generation 7\n"),
            std::string::npos);
}

}  // namespace
}  // namespace vsim
