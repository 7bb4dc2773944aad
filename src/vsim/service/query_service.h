// Thread-safe concurrent query service over an atomically swappable
// DbSnapshot (database + indexes + generation): the serving layer
// between the paper's single-query engine and a front-end handling many
// simultaneous users, kept online while the data set or the extraction
// parameters (r, k, cover strategy) change underneath it.
//
//   - Requests are executed on a fixed-size ThreadPool; reads run truly
//     concurrently because each snapshot's database + indexes are
//     immutable after construction (the engine's query methods are
//     const and touch no mutable state -- see docs/ARCHITECTURE.md).
//     A request whose answer is already in the result cache is answered
//     at submission instead, on the submitting thread.
//   - Snapshot-swap reindex: the service holds a shared_ptr<const
//     DbSnapshot> published under a mutex (RCU-style). A worker
//     acquires the current snapshot once per request and keeps its
//     reference for the request's whole execution, so every request
//     observes exactly one generation end-to-end; SwapSnapshot()
//     installs a rebuilt snapshot without draining in-flight queries
//     (see Rebuilder for the off-thread construction half).
//   - Admission control: at most `max_queue` requests may be waiting
//     for a worker. Submissions past the bound are rejected immediately
//     with kUnavailable instead of queueing unboundedly (backpressure
//     the caller can act on).
//   - Deadlines: a request whose deadline passes while still queued
//     fails fast with kDeadlineExceeded without occupying a worker for
//     the query itself; so does a cached answer that is ready only
//     after the deadline.
//   - Results of refined queries are memoized in a sharded LRU
//     ResultCache. Keys carry the snapshot's generation, so a swap
//     logically invalidates every older entry without a stop-the-world
//     flush: stale entries simply stop matching and age out via LRU.
//
// Thread-safety: all public methods are safe to call concurrently from
// any thread. Disk-backed snapshots (QueryEngine::AttachStore /
// DbSnapshot::CreateDiskBacked) serve concurrently like RAM-resident
// ones: refinement fetches go through the sharded buffer pool
// (src/vsim/cache/page_cache.h), whose fetch path is fully concurrent.
// A disk-backed snapshot's pool counters surface in the registry as the
// vsim_cache_pool_* series (docs/OBSERVABILITY.md).
#ifndef VSIM_SERVICE_QUERY_SERVICE_H_
#define VSIM_SERVICE_QUERY_SERVICE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>

#include "vsim/common/status.h"
#include "vsim/common/thread_annotations.h"
#include "vsim/core/query_engine.h"
#include "vsim/core/similarity.h"
#include "vsim/obs/metrics.h"
#include "vsim/obs/query_trace.h"
#include "vsim/obs/span.h"
#include "vsim/service/db_snapshot.h"
#include "vsim/service/result_cache.h"
#include "vsim/service/thread_pool.h"

namespace vsim {

// The wire protocol carries these values, so they never change.
enum class QueryKind {
  kKnn,
  kRange,
  kInvariantKnn,    // Definition-2 pose-invariant k-NN
  kInvariantRange,
};
// Every value below this one is a query kind.
inline constexpr int kNumQueryKinds = 4;

const char* QueryKindName(QueryKind kind);

// The per-request knob surface, gathered into one struct instead of
// parallel positional parameters threaded through QueryService /
// Client / the CLI. Validation lives in exactly one place --
// ValidateQueryOptions() in service/request_parse.h -- and the wire
// encoding in net/protocol.cc appends new fields as tolerant trailing
// data, so old peers keep decoding (docs/PROTOCOL.md).
struct QueryOptions {
  int k = 10;        // k-NN kinds
  double eps = 0.0;  // range kinds

  // 0 = no deadline, and so is a timeout too long for the service's
  // nanosecond clock (e.g. +inf). The deadline is checked when a worker
  // picks the request up, or, for an answer found in the result cache
  // at submission, when that answer is ready; execution itself is not
  // interrupted.
  double timeout_seconds = 0.0;
};

// A request is a plain value: safe to copy between threads, no
// references into service state.
struct ServiceRequest {
  QueryKind kind = QueryKind::kKnn;
  QueryStrategy strategy = QueryStrategy::kVectorSetFilter;

  // Query object: a stored id (>= 0), or an external representation in
  // `query` when object_id < 0. Stored ids are validated against the
  // snapshot the request executes on -- after a swap that shrank the
  // database, a previously valid id can fail with kOutOfRange.
  int object_id = -1;
  ObjectRepr query;

  QueryOptions options;
  bool with_reflections = false;  // invariant kinds: 48- vs 24-group

  // Distributed trace identity (docs/PROTOCOL.md §12). Propagated from
  // the wire by the transports; zero (invalid) for local callers that
  // do not trace, in which case the service mints one per request so
  // every span tree has an id.
  obs::TraceContext trace;
};

struct ServiceResponse {
  std::vector<Neighbor> neighbors;  // k-NN kinds
  std::vector<int> ids;             // range kinds
  QueryCost cost;                   // zero for cache hits
  bool cache_hit = false;
  double latency_seconds = 0.0;  // submission -> completion
  // Generation of the snapshot that produced (or cached) this result.
  // Always a generation that was current at some point between the
  // request's admission and its completion.
  uint64_t generation = 0;
  // Trace id echo (docs/PROTOCOL.md §12): the id the request carried,
  // or the one the service minted when it carried none. Transports
  // append it to the response's final chunk so the client can correlate.
  uint64_t trace_hi = 0;
  uint64_t trace_lo = 0;
};

struct QueryServiceOptions {
  int num_threads = 0;        // 0 = hardware concurrency
  size_t max_queue = 1024;    // admission bound (queued, not running)
  size_t cache_bytes = 32ull << 20;  // 0 disables the result cache

  // Deployment emulation: after executing a request, the worker sleeps
  // the request's simulated I/O time (cost.IoSeconds(io_params)). This
  // turns the paper's *charged* cost model into real wall-clock
  // latency, so concurrent queries overlap their I/O waits exactly the
  // way a disk-backed server would; cache hits skip the sleep along
  // with the computation. Off by default (pure CPU execution).
  bool simulate_io_wait = false;
  IoCostParams io_params;  // conversion constants for the emulated wait

  // Observability (docs/OBSERVABILITY.md): every admitted request
  // publishes one record -- its QueryTrace summary and service span
  // tree -- into the span ring; records of requests at or above this
  // latency are also kept in the ring's slow sub-ring.
  double slow_trace_seconds = 0.100;
};

// The service's request counters, read from its metrics registry, plus
// the result-cache counters and the request-latency percentiles of the
// vsim_request_latency_seconds histogram. Once the service is drained,
// submitted == completed + failed + timed_out; rejected offers were
// never admitted.
struct ServiceStatsSnapshot {
  uint64_t submitted = 0;  // admitted requests
  uint64_t completed = 0;
  uint64_t rejected = 0;   // admission-queue backpressure
  uint64_t timed_out = 0;  // deadline passed before execution or a hit
  uint64_t failed = 0;     // invalid requests etc.
  uint64_t snapshot_swaps = 0;  // reindex publications (SwapSnapshot)
  // Every request that reached a worker or was answered at submission,
  // failed and timed-out ones included (the histogram's population).
  double latency_mean_s = 0.0;
  double latency_p50_s = 0.0;
  double latency_p95_s = 0.0;
  double latency_p99_s = 0.0;
  ResultCacheStats cache;
};

class QueryService {
 public:
  // Serves `snapshot` (which the service holds a reference to until the
  // first swap; an owning snapshot from DbSnapshot::Create keeps its
  // database and engine alive for exactly as long as needed).
  explicit QueryService(std::shared_ptr<const DbSnapshot> snapshot,
                        QueryServiceOptions options = {});

  // Legacy convenience: wraps `db` and `engine` in a non-owning
  // generation-0 snapshot. They must outlive the service (and any
  // in-flight request) and are never mutated.
  QueryService(const CadDatabase* db, const QueryEngine* engine,
               QueryServiceOptions options = {});

  // Blocks until every queued and in-flight request has completed (the
  // pool drains; every admitted request's callback runs first).
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  // Asynchronous submission, the one path every request takes (the
  // epoll reactor in src/vsim/net/, `vsim batch`, Execute). Returns
  // kUnavailable immediately when the admission queue is full, and
  // `done` is then never invoked, so the caller can turn the rejection
  // into a backpressure signal (a kUnavailable wire frame) without
  // waiting. Otherwise invokes `done` exactly once with the response or
  // a per-request error (kDeadlineExceeded, validation). A request
  // whose answer is in the result cache is answered on the calling
  // thread, and `done` runs there before this call returns; every
  // other request is queued, and `done` runs on the worker thread that
  // executed it. So the caller must not hold a lock that `done` takes,
  // and `done` must not block for long or submit and wait on another
  // request (on a pool worker, a slow callback occupies a query slot).
  Status SubmitWithCallback(
      ServiceRequest request,
      std::function<void(StatusOr<ServiceResponse>)> done);

  // Synchronous convenience: SubmitWithCallback + wait.
  StatusOr<ServiceResponse> Execute(ServiceRequest request);

  // Publishes a rebuilt snapshot. Returns kFailedPrecondition unless
  // `next->generation()` is strictly greater than the current
  // generation (monotonicity is what lets cache keys double as
  // invalidation tags). In-flight requests keep the snapshot they
  // already acquired; new requests see `next`. The displaced snapshot
  // is destroyed when its last in-flight request finishes. Safe to call
  // concurrently with SubmitWithCallback/Execute; concurrent swappers
  // serialize on the snapshot mutex.
  Status SwapSnapshot(std::shared_ptr<const DbSnapshot> next)
      EXCLUDES(snapshot_mu_);

  // The snapshot new requests would execute on right now (the reference
  // keeps it alive even across a subsequent swap).
  std::shared_ptr<const DbSnapshot> snapshot() const EXCLUDES(snapshot_mu_);
  uint64_t generation() const { return snapshot()->generation(); }

  // Quiesce the workers (in-flight tasks finish, queued ones wait).
  // This holds queued requests only: a request answered from the result
  // cache at submission still completes while paused. Queued requests
  // can still time out while paused.
  void Pause();
  void Resume();

  int num_threads() const { return pool_.num_threads(); }
  ServiceStatsSnapshot Stats() const;
  const ResultCache& cache() const { return cache_; }
  // Stats() as a two-column metric/value table.
  void PrintStats(std::FILE* out = stdout) const;

  // The unified metric namespace (Prometheus text exposition via
  // metrics().TextExposition()). The registry is also the attachment
  // point for front-end collectors: net::Server registers its own
  // connection counters here so one scrape covers the whole stack.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  // Recent and slow per-request records (docs/OBSERVABILITY.md
  // "Tracing"): each admitted request's QueryTrace summary with its
  // service span tree. Transports publish their net-layer trees here
  // too, so one ring holds every layer of a trace.
  obs::SpanRing& span_ring() { return span_ring_; }
  const obs::SpanRing& span_ring() const { return span_ring_; }

 private:
  void RegisterMetrics();
  // Rolls the trace's counters and stage timings into the registry
  // instruments.
  void RecordMetrics(const obs::QueryTrace& trace);

  // Admission-control check of SubmitWithCallback: either reserves a
  // queue slot and counts the request as submitted (OK), or counts a
  // rejection and returns kUnavailable.
  Status Admit();
  // The submission-side result-cache lookup on the current snapshot:
  // true, with the answer and its generation in *hit, on a hit. No
  // lookup is made when the cache is off, the request fails
  // validation, or its stored id's set must first be read from the
  // store; such requests, and misses, are left to a worker, whose
  // lookup is the one counted.
  bool ProbeCache(const ServiceRequest& request, ServiceResponse* hit);
  // The worker-side body of a queued submission: releases the queue
  // slot from Admit(), checks the deadline, executes and finishes.
  // Timestamps are obs::MonotonicNowNs() nanoseconds (deadline_ns =
  // UINT64_MAX means no deadline) so every stage boundary is
  // span-attributable.
  StatusOr<ServiceResponse> RunAdmitted(const ServiceRequest& request,
                                        uint64_t submitted_ns,
                                        uint64_t deadline_ns);
  // Completes an admitted request whose outcome is known: registry
  // counters and instruments, and its one record in the span ring.
  // `pickup_ns` is when its execution began, equal to `submitted_ns`
  // for an answer found at submission (a zero queue wait).
  StatusOr<ServiceResponse> Finish(const ServiceRequest& request,
                                   StatusOr<ServiceResponse> response,
                                   uint64_t submitted_ns, uint64_t pickup_ns);
  // Builds the request's record -- the trace as its summary, and the
  // service-layer span tree (request root, queue/admission children,
  // engine-stage children synthesized from the trace's measured stage
  // splits) -- and publishes it into the span ring. Allocation-free.
  void PublishRecord(const obs::TraceContext& context,
                     const obs::QueryTrace& trace, uint64_t submitted_ns,
                     uint64_t pickup_ns, uint64_t end_ns);
  StatusOr<ServiceResponse> RunRequest(const ServiceRequest& request);
  Status Validate(const ServiceRequest& request,
                  const CadDatabase& db) const;
  ResultCacheKey MakeKey(const ServiceRequest& request,
                         const ObjectRepr& query,
                         uint64_t generation) const;

  // RCU publication point: workers copy the shared_ptr under the mutex
  // (cheap refcount bump), swappers replace it. The mutex is held only
  // for the pointer copy, never during query execution.
  mutable Mutex snapshot_mu_{"service.snapshot"};
  std::shared_ptr<const DbSnapshot> snapshot_ GUARDED_BY(snapshot_mu_);

  // Immutable after construction (options_) or internally synchronized
  // (cache_, metrics_, span_ring_, queued_, pool_); no mutex needed.
  QueryServiceOptions options_;
  ResultCache cache_;
  obs::MetricsRegistry metrics_;
  obs::SpanRing span_ring_;

  // Registry-owned instruments recorded on the request path (the
  // pointers are stable for the registry's lifetime; recording through
  // them is lock- and allocation-free). Set once in RegisterMetrics().
  obs::Counter* submitted_total_ = nullptr;
  obs::Counter* completed_total_ = nullptr;
  obs::Counter* rejected_total_ = nullptr;
  obs::Counter* timed_out_total_ = nullptr;
  obs::Counter* failed_total_ = nullptr;
  obs::Counter* snapshot_swaps_total_ = nullptr;
  // Spans dropped by arena-capacity truncation, across requests.
  obs::Counter* spans_truncated_total_ = nullptr;
  obs::Histogram* latency_hist_ = nullptr;
  obs::Histogram* queue_wait_hist_ = nullptr;
  obs::Histogram* filter_stage_hist_ = nullptr;
  obs::Histogram* refine_stage_hist_ = nullptr;
  obs::Counter* filter_hits_total_ = nullptr;
  obs::Counter* candidates_refined_total_ = nullptr;
  obs::Counter* hungarian_total_ = nullptr;
  obs::Counter* io_pages_total_ = nullptr;
  obs::Counter* io_bytes_total_ = nullptr;
  obs::Gauge* generation_gauge_ = nullptr;
  std::array<obs::Counter*, kNumQueryStrategies> queries_by_strategy_{};

  std::atomic<size_t> queued_{0};
  std::atomic<uint64_t> next_trace_id_{0};
  // Random per-service salt for minting trace ids when a request
  // carries none (set once at construction; not a clock, so the record
  // path stays raw-clock-free per the vsim-lint rule).
  uint64_t trace_seed_hi_ = 0;
  uint64_t trace_seed_lo_ = 0;
  // Declared last: destroyed first, so queued tasks drain while every
  // member they touch is still alive.
  ThreadPool pool_;
};

}  // namespace vsim

#endif  // VSIM_SERVICE_QUERY_SERVICE_H_
