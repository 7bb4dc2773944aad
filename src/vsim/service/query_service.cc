#include "vsim/service/query_service.h"

#include <chrono>
#include <future>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>

#include "vsim/cache/metrics_adapter.h"
#include "vsim/service/request_parse.h"

namespace vsim {

namespace {

// SplitMix64 finalizer, used to stretch the per-service random salt
// into per-request trace ids without an RNG on the request path.
uint64_t MixTraceWord(uint64_t value) {
  uint64_t z = value + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

inline constexpr uint64_t kNoDeadlineNs = UINT64_MAX;

}  // namespace

const char* QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kKnn:
      return "knn";
    case QueryKind::kRange:
      return "range";
    case QueryKind::kInvariantKnn:
      return "invariant-knn";
    case QueryKind::kInvariantRange:
      return "invariant-range";
  }
  return "unknown";
}

QueryService::QueryService(std::shared_ptr<const DbSnapshot> snapshot,
                           QueryServiceOptions options)
    : snapshot_(std::move(snapshot)),
      options_(options),
      cache_(options.cache_bytes, options.cache_shards),
      recorder_(options.flight_recorder_capacity, options.slow_trace_seconds,
                options.slow_ring_capacity),
      span_ring_(options.span_ring_capacity),
      pool_(options.num_threads) {
  std::random_device rd;
  trace_seed_hi_ = (static_cast<uint64_t>(rd()) << 32) | rd();
  trace_seed_lo_ = (static_cast<uint64_t>(rd()) << 32) | rd();
  if ((trace_seed_hi_ | trace_seed_lo_) == 0) trace_seed_lo_ = 1;
  RegisterMetrics();
}

void QueryService::RegisterMetrics() {
  latency_hist_ = metrics_.RegisterHistogram(
      "vsim_request_latency_seconds",
      "End-to-end request latency, admission to completion");
  queue_wait_hist_ = metrics_.RegisterHistogram(
      "vsim_queue_wait_seconds",
      "Time a request waited in the admission queue for a worker");
  filter_stage_hist_ = metrics_.RegisterHistogram(
      "vsim_filter_stage_seconds",
      "CPU time in the filter stage (Lemma-2 centroid bound lookup)");
  refine_stage_hist_ = metrics_.RegisterHistogram(
      "vsim_refine_stage_seconds",
      "CPU time in the refinement stage (exact minimal matching)");
  filter_hits_total_ = metrics_.RegisterCounter(
      "vsim_filter_hits_total",
      "Candidates produced by the filter step across all queries");
  candidates_refined_total_ = metrics_.RegisterCounter(
      "vsim_candidates_refined_total",
      "Candidates that reached the exact distance refinement");
  hungarian_total_ = metrics_.RegisterCounter(
      "vsim_hungarian_invocations_total",
      "Kuhn-Munkres minimal-matching runs");
  io_pages_total_ = metrics_.RegisterCounter(
      "vsim_io_page_accesses_total",
      "Charged page accesses of the paper cost model (8 ms/page)");
  io_bytes_total_ = metrics_.RegisterCounter(
      "vsim_io_bytes_read_total",
      "Charged bytes read of the paper cost model (200 ns/byte)");
  generation_gauge_ = metrics_.RegisterGauge(
      "vsim_snapshot_generation",
      "Generation of the snapshot new requests execute on");
  for (int s = 0; s < static_cast<int>(queries_by_strategy_.size()); ++s) {
    queries_by_strategy_[s] = metrics_.RegisterCounter(
        "vsim_queries_total", "Completed queries by execution strategy",
        std::string("strategy=\"") +
            QueryStrategyFlagName(static_cast<QueryStrategy>(s)) + "\"");
  }
  {
    MutexLock lock(&snapshot_mu_);
    generation_gauge_->Set(static_cast<double>(snapshot_->generation()));
  }
  // The pre-existing ad-hoc stat blocks (ServiceStats, ResultCacheStats)
  // keep their relaxed atomics; a collector folds them into the same
  // exposition instead of double-counting them into owned instruments.
  metrics_.RegisterCollector([this](std::vector<obs::MetricSample>* out) {
    auto add = [out](const char* name, const char* help, double value,
                     obs::MetricSample::Type type =
                         obs::MetricSample::Type::kCounter) {
      obs::MetricSample s;
      s.name = name;
      s.help = help;
      s.type = type;
      s.value = value;
      out->push_back(std::move(s));
    };
    add("vsim_requests_submitted_total", "Requests offered to admission",
        static_cast<double>(stats_.submitted.load(std::memory_order_relaxed)));
    add("vsim_requests_completed_total", "Requests completed successfully",
        static_cast<double>(stats_.completed.load(std::memory_order_relaxed)));
    add("vsim_requests_rejected_total",
        "Requests rejected by admission backpressure",
        static_cast<double>(stats_.rejected.load(std::memory_order_relaxed)));
    add("vsim_requests_timed_out_total",
        "Requests whose deadline passed while queued",
        static_cast<double>(stats_.timed_out.load(std::memory_order_relaxed)));
    add("vsim_requests_failed_total", "Requests failed (validation etc.)",
        static_cast<double>(stats_.failed.load(std::memory_order_relaxed)));
    add("vsim_snapshot_swaps_total", "Reindex snapshot publications",
        static_cast<double>(
            stats_.snapshot_swaps.load(std::memory_order_relaxed)));
    const ResultCacheStats cache = cache_.stats();
    add("vsim_cache_hits_total", "Result cache hits",
        static_cast<double>(cache.hits));
    add("vsim_cache_misses_total", "Result cache misses",
        static_cast<double>(cache.misses));
    add("vsim_cache_insertions_total", "Result cache insertions",
        static_cast<double>(cache.insertions));
    add("vsim_cache_evictions_total", "Result cache evictions",
        static_cast<double>(cache.evictions));
    add("vsim_flight_recorder_recorded_total", "Traces recorded",
        static_cast<double>(recorder_.recorded()));
    add("vsim_flight_recorder_dropped_total",
        "Traces dropped on slot contention",
        static_cast<double>(recorder_.dropped()));
    add("vsim_flight_recorder_slow_threshold_seconds",
        "Latency at or above which a trace enters the slow ring",
        recorder_.slow_threshold_seconds(), obs::MetricSample::Type::kGauge);
    add("vsim_span_trees_recorded_total",
        "Span trees published into the span ring",
        static_cast<double>(span_ring_.recorded()));
    add("vsim_span_trees_dropped_total",
        "Span trees dropped on span-ring slot contention",
        static_cast<double>(span_ring_.dropped()));
    add("vsim_spans_truncated_total",
        "Spans dropped because a request outgrew its span arena",
        static_cast<double>(
            spans_truncated_.load(std::memory_order_relaxed)));
    // Disk-backed snapshots expose their buffer pool's hot/cold tier
    // counters (vsim_cache_pool_*; distinct from the result-cache
    // vsim_cache_* series above). Lock order here is registry mutex ->
    // snapshot_mu_; nothing takes them in the other order.
    std::shared_ptr<const DbSnapshot> snap = snapshot();
    if (snap != nullptr && snap->store() != nullptr) {
      cache::AppendPoolSamples(snap->store()->pool(), out);
      // RAM still held by the database's vector-set copies: 0 once
      // CreateDiskBacked demoted them, the full duplicate footprint
      // under keep_ram_sets (the regression this gauge watches for).
      add("vsim_cache_pool_resident_bytes",
          "RAM bytes of vector-set copies duplicated beside the store",
          static_cast<double>(snap->db().VectorSetResidentBytes()),
          obs::MetricSample::Type::kGauge);
    }
  });
}

void QueryService::RecordTrace(const obs::QueryTrace& trace) {
  recorder_.Record(trace);
  queue_wait_hist_->Record(trace.queue_seconds);
  latency_hist_->Record(trace.total_seconds);
  if (trace.status_code != 0) return;  // failures carry no stage data
  queries_by_strategy_[trace.strategy]->Increment();
  if (trace.cache_hit != 0) return;  // hits skipped the pipeline
  filter_stage_hist_->Record(trace.filter_seconds);
  refine_stage_hist_->Record(trace.refine_seconds);
  filter_hits_total_->Increment(trace.filter_hits);
  candidates_refined_total_->Increment(trace.candidates_refined);
  hungarian_total_->Increment(trace.hungarian_invocations);
  io_pages_total_->Increment(trace.page_accesses);
  io_bytes_total_->Increment(trace.bytes_read);
}

QueryService::QueryService(const CadDatabase* db, const QueryEngine* engine,
                           QueryServiceOptions options)
    : QueryService(DbSnapshot::Wrap(db, engine, 0), options) {}

QueryService::~QueryService() = default;

void QueryService::Pause() { pool_.Pause(); }
void QueryService::Resume() { pool_.Resume(); }

std::shared_ptr<const DbSnapshot> QueryService::snapshot() const {
  MutexLock lock(&snapshot_mu_);
  return snapshot_;
}

Status QueryService::SwapSnapshot(std::shared_ptr<const DbSnapshot> next) {
  if (next == nullptr) {
    return Status::InvalidArgument("cannot swap in a null snapshot");
  }
  MutexLock lock(&snapshot_mu_);
  if (next->generation() <= snapshot_->generation()) {
    return Status::FailedPrecondition(
        "snapshot generation " + std::to_string(next->generation()) +
        " is not newer than current generation " +
        std::to_string(snapshot_->generation()));
  }
  snapshot_ = std::move(next);
  stats_.snapshot_swaps.fetch_add(1, std::memory_order_relaxed);
  generation_gauge_->Set(static_cast<double>(snapshot_->generation()));
  return Status::OK();
}

Status QueryService::Validate(const ServiceRequest& request,
                              const CadDatabase& db) const {
  const bool invariant_kind = request.kind == QueryKind::kInvariantKnn ||
                              request.kind == QueryKind::kInvariantRange;
  // The knob surface (k, eps, timeout) has exactly one validation
  // point: ValidateQueryOptions in service/request_parse.h.
  VSIM_RETURN_NOT_OK(ValidateQueryOptions(request.kind, request.options));
  if (invariant_kind && request.strategy == QueryStrategy::kOneVectorXTree) {
    return Status::InvalidArgument(
        "invariant queries are not defined for the one-vector strategy");
  }
  if (request.object_id >= 0) {
    if (request.object_id >= static_cast<int>(db.size())) {
      return Status::OutOfRange("object_id " +
                                std::to_string(request.object_id) +
                                " out of range");
    }
    return Status::OK();
  }
  // External query: the strategy determines which representation the
  // engine reads.
  if (request.strategy == QueryStrategy::kOneVectorXTree) {
    if (request.query.cover_vector.empty()) {
      return Status::InvalidArgument(
          "external one-vector query needs a cover_vector");
    }
    return Status::OK();
  }
  if (request.query.vector_set.empty()) {
    return Status::InvalidArgument("external query needs a vector_set");
  }
  if (request.strategy == QueryStrategy::kVectorSetFilter &&
      request.query.centroid.empty()) {
    return Status::InvalidArgument(
        "external filtered query needs an extended centroid");
  }
  return Status::OK();
}

ResultCacheKey QueryService::MakeKey(const ServiceRequest& request,
                                     const ObjectRepr& query,
                                     uint64_t generation) const {
  const bool knn_kind = request.kind == QueryKind::kKnn ||
                        request.kind == QueryKind::kInvariantKnn;
  const bool invariant_kind = request.kind == QueryKind::kInvariantKnn ||
                              request.kind == QueryKind::kInvariantRange;
  ResultCacheKey key;
  key.digest = DigestQueryObject(query);
  key.generation = generation;
  key.kind = static_cast<uint8_t>(request.kind);
  key.strategy = static_cast<uint8_t>(request.strategy);
  key.invariance =
      invariant_kind ? (request.with_reflections ? 2 : 1) : 0;
  key.k = knn_kind ? request.options.k : 0;
  key.eps = knn_kind ? 0.0 : request.options.eps;
  return key;
}

StatusOr<ServiceResponse> QueryService::RunRequest(
    const ServiceRequest& request) {
  // One acquisition per request: everything below -- validation, cache
  // key, query execution -- sees this snapshot and only this snapshot,
  // even if SwapSnapshot publishes a newer one mid-query.
  const std::shared_ptr<const DbSnapshot> snap = snapshot();
  const CadDatabase& db = snap->db();
  const QueryEngine& engine = snap->engine();

  VSIM_RETURN_NOT_OK(Validate(request, db));
  // Stored-id queries on a disk-backed snapshot whose RAM vector sets
  // were demoted (DbSnapshot::CreateDiskBacked default): rebuild the
  // query's set from the store, so the exact pipeline and the cache
  // digest see the same representation a RAM-resident snapshot would.
  ObjectRepr hydrated;
  const ObjectRepr* query_ptr = &request.query;
  if (request.object_id >= 0) {
    const ObjectRepr& stored = db.object(request.object_id);
    query_ptr = &stored;
    if (stored.vector_set.empty() && snap->store() != nullptr) {
      StatusOr<VectorSet> set = snap->store()->Get(request.object_id);
      VSIM_RETURN_NOT_OK(set.status());
      hydrated = stored;
      hydrated.vector_set = std::move(set).value();
      query_ptr = &hydrated;
    }
  }
  const ObjectRepr& query = *query_ptr;

  ServiceResponse response;
  response.generation = snap->generation();
  ResultCacheKey key;
  if (cache_.enabled()) {
    key = MakeKey(request, query, snap->generation());
    CachedResult hit;
    if (cache_.Lookup(key, &hit)) {
      response.neighbors = std::move(hit.neighbors);
      response.ids = std::move(hit.ids);
      response.cache_hit = true;
      return response;
    }
  }

  const QueryOptions& opt = request.options;
  switch (request.kind) {
    case QueryKind::kKnn:
      response.neighbors =
          engine.Knn(request.strategy, query, opt.k, &response.cost);
      break;
    case QueryKind::kRange:
      response.ids =
          engine.Range(request.strategy, query, opt.eps, &response.cost);
      break;
    case QueryKind::kInvariantKnn:
      response.neighbors =
          engine.InvariantKnn(request.strategy, query, opt.k,
                              request.with_reflections, &response.cost);
      break;
    case QueryKind::kInvariantRange:
      response.ids =
          engine.InvariantRange(request.strategy, query, opt.eps,
                                request.with_reflections, &response.cost);
      break;
  }
  // A failed store read during refinement fails the request: no partial
  // answer is returned or cached.
  VSIM_RETURN_NOT_OK(response.cost.status);

  if (cache_.enabled()) {
    cache_.Insert(key, CachedResult{response.neighbors, response.ids});
  }
  if (options_.simulate_io_wait) {
    const double io_seconds = response.cost.IoSeconds(options_.io_params);
    if (io_seconds > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(io_seconds));
    }
  }
  return response;
}

Status QueryService::Admit() {
  stats_.submitted.fetch_add(1, std::memory_order_relaxed);
  if (queued_.fetch_add(1, std::memory_order_acq_rel) >= options_.max_queue) {
    queued_.fetch_sub(1, std::memory_order_acq_rel);
    stats_.rejected.fetch_add(1, std::memory_order_relaxed);
    return Status::Unavailable(
        "admission queue full (bound " + std::to_string(options_.max_queue) +
        "); retry with backoff");
  }
  return Status::OK();
}

void QueryService::PublishSpans(const obs::TraceContext& context,
                                const obs::QueryTrace& trace,
                                uint64_t submitted_ns, uint64_t pickup_ns,
                                uint64_t end_ns) {
  obs::SpanArena arena(context, trace.trace_id);
  const int root =
      arena.Add(obs::SpanName::kRequest, context.parent_span_id, submitted_ns,
                end_ns, trace.candidates_refined);
  const uint64_t root_id = arena.span_id(root);
  arena.Add(obs::SpanName::kQueue, root_id, submitted_ns, pickup_ns);
  arena.Add(obs::SpanName::kAdmission, root_id, pickup_ns, pickup_ns);
  if (trace.status_code == 0 && trace.cache_hit == 0) {
    // The engine ran inside [pickup, end]; reconstruct the filter and
    // refine children from the measured stage splits (the engine
    // itself stays span-unaware -- its QueryCost is the measurement).
    const uint64_t filter_ns =
        static_cast<uint64_t>(trace.filter_seconds * 1e9);
    const uint64_t refine_ns =
        static_cast<uint64_t>(trace.refine_seconds * 1e9);
    uint64_t filter_end = pickup_ns + filter_ns;
    if (filter_end > end_ns) filter_end = end_ns;
    uint64_t refine_start = end_ns > refine_ns ? end_ns - refine_ns : end_ns;
    if (refine_start < filter_end) refine_start = filter_end;
    arena.Add(obs::SpanName::kFilter, root_id, pickup_ns, filter_end,
              trace.filter_hits);
    arena.Add(obs::SpanName::kRefine, root_id, refine_start, end_ns,
              trace.hungarian_invocations);
  }
  obs::SpanTreeRecord record;
  obs::RenderSpanTree(arena, trace.trace_id, &record);
  if (arena.dropped() > 0) {
    spans_truncated_.fetch_add(arena.dropped(), std::memory_order_relaxed);
  }
  span_ring_.Record(record);
}

StatusOr<ServiceResponse> QueryService::RunAdmitted(
    const ServiceRequest& request, uint64_t submitted_ns,
    uint64_t deadline_ns) {
  queued_.fetch_sub(1, std::memory_order_acq_rel);
  const uint64_t pickup_ns = obs::MonotonicNowNs();
  // Every picked-up request leaves a trace, successful or not: the
  // flight recorder is most valuable precisely when requests fail.
  obs::QueryTrace trace;
  trace.trace_id = next_trace_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  trace.kind = static_cast<uint8_t>(request.kind);
  trace.strategy = static_cast<uint8_t>(request.strategy);
  trace.k = request.options.k;
  trace.eps = request.options.eps;
  trace.queue_seconds = static_cast<double>(pickup_ns - submitted_ns) * 1e-9;
  // Adopt the wire-propagated trace identity, or mint one so local
  // callers still get correlatable span trees.
  obs::TraceContext context = request.trace;
  if (!context.valid()) {
    context.trace_hi = MixTraceWord(trace_seed_hi_ ^ trace.trace_id);
    context.trace_lo = MixTraceWord(trace_seed_lo_ + trace.trace_id);
    context.parent_span_id = 0;
  }
  trace.trace_hi = context.trace_hi;
  trace.trace_lo = context.trace_lo;
  if (pickup_ns > deadline_ns) {
    stats_.timed_out.fetch_add(1, std::memory_order_relaxed);
    Status expired = Status::DeadlineExceeded(
        "request deadline passed before a worker picked it up");
    trace.status_code = static_cast<uint8_t>(expired.code());
    const uint64_t end_ns = obs::MonotonicNowNs();
    trace.total_seconds = static_cast<double>(end_ns - submitted_ns) * 1e-9;
    RecordTrace(trace);
    if (options_.enable_spans) {
      PublishSpans(context, trace, submitted_ns, pickup_ns, end_ns);
    }
    return expired;
  }
  StatusOr<ServiceResponse> response = RunRequest(request);
  const uint64_t end_ns = obs::MonotonicNowNs();
  const double latency = static_cast<double>(end_ns - submitted_ns) * 1e-9;
  trace.total_seconds = latency;
  if (response.ok()) {
    const ServiceResponse& r = response.value();
    response.value().latency_seconds = latency;
    response.value().trace_hi = context.trace_hi;
    response.value().trace_lo = context.trace_lo;
    stats_.completed.fetch_add(1, std::memory_order_relaxed);
    trace.generation = r.generation;
    trace.cache_hit = r.cache_hit ? 1 : 0;
    trace.cpu_seconds = r.cost.cpu_seconds;
    trace.filter_seconds = r.cost.filter_seconds;
    trace.refine_seconds = r.cost.refine_seconds;
    trace.filter_hits = r.cost.filter_hits;
    trace.candidates_refined = r.cost.candidates_refined;
    trace.hungarian_invocations = r.cost.hungarian_invocations;
    trace.page_accesses = r.cost.io.page_accesses();
    trace.bytes_read = r.cost.io.bytes_read();
  } else {
    stats_.failed.fetch_add(1, std::memory_order_relaxed);
    trace.status_code = static_cast<uint8_t>(response.status().code());
  }
  RecordTrace(trace);
  if (options_.enable_spans) {
    PublishSpans(context, trace, submitted_ns, pickup_ns, end_ns);
  }
  return response;
}

namespace {

// Deadline resolution of a submission: 0 means "no deadline",
// represented as kNoDeadlineNs, and so does a deadline past the
// uint64_t nanosecond range (casting such a double is undefined).
// NaN also maps to kNoDeadlineNs here; validation then rejects it.
uint64_t DeadlineForNs(double timeout_seconds, uint64_t submitted_ns) {
  if (!(timeout_seconds > 0.0)) return kNoDeadlineNs;
  const double timeout_ns = timeout_seconds * 1e9;
  if (!(timeout_ns < static_cast<double>(kNoDeadlineNs - submitted_ns))) {
    return kNoDeadlineNs;
  }
  return submitted_ns + static_cast<uint64_t>(timeout_ns);
}

}  // namespace

Status QueryService::SubmitWithCallback(
    ServiceRequest request, std::function<void(StatusOr<ServiceResponse>)> done) {
  if (done == nullptr) {
    return Status::InvalidArgument("SubmitWithCallback needs a callback");
  }
  VSIM_RETURN_NOT_OK(Admit());
  const uint64_t submitted_ns = obs::MonotonicNowNs();
  const uint64_t deadline_ns =
      DeadlineForNs(request.options.timeout_seconds, submitted_ns);
  // The future from pool_.Submit is discarded deliberately: the result
  // is delivered through `done` on the worker thread, and a discarded
  // future neither blocks nor cancels the task.
  pool_.Submit([this, request = std::move(request), done = std::move(done),
                submitted_ns, deadline_ns]() {
    done(RunAdmitted(request, submitted_ns, deadline_ns));
  });
  return Status::OK();
}

StatusOr<ServiceResponse> QueryService::Execute(ServiceRequest request) {
  // The callback owns a reference to the promise, so the shared state
  // outlives the worker's set_value even after get() has returned.
  auto done = std::make_shared<std::promise<StatusOr<ServiceResponse>>>();
  std::future<StatusOr<ServiceResponse>> result = done->get_future();
  VSIM_RETURN_NOT_OK(SubmitWithCallback(
      std::move(request), [done](StatusOr<ServiceResponse> response) {
        done->set_value(std::move(response));
      }));
  return result.get();
}

}  // namespace vsim
