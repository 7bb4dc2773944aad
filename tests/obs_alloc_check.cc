// Allocation-freedom check for the per-request hot paths (registered
// as CTest `obs_alloc_check`): global operator new/delete are replaced
// with counting hooks, and these paths must execute with ZERO
// allocations:
//   - the observability record path: SpanArena build, RenderSpanTree
//     with a QueryTrace summary, and SpanRing::Record into both the
//     recent and the slow ring;
//   - the refinement paths: a 7x7 VectorSetDistance (the paper's
//     cardinality, Kuhn-Munkres included), a PreparedQuery of 7 vectors
//     refining 96 candidates, a third each pruned by its row-minimum
//     bound, pruned by its reduction bound and solved, and one
//     store-record decode (VectorSetStore::GetFlat) into a reused
//     buffer;
//   - the result-cache hit path's fixed cost: the digest and key hash of
//     a stored object, encoding a 10-NN response into a buffer that
//     already has the capacity, and publishing a service record as
//     QueryService does for a hit (root, queue and admission spans).
// A future change that sneaks a std::string or vector resize into one
// of them fails this binary, not a profiler session in production.
//
// Deliberately a standalone binary (not part of vsim_tests): gtest
// allocates freely in its own machinery, which would force the hooks
// to discriminate call sites instead of counting globally.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "vsim/distance/min_matching.h"
#include "vsim/net/protocol.h"
#include "vsim/obs/query_trace.h"
#include "vsim/obs/span.h"
#include "vsim/service/result_cache.h"
#include "vsim/storage/vector_set_store.h"

namespace {

// Counting is toggled only on the main thread between phases; the
// counter itself is plain (no other threads run in this binary).
bool g_counting = false;
unsigned long g_allocations = 0;

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting) ++g_allocations;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) std::abort();
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

void CheckNoAllocations(const char* phase) {
  if (g_allocations != 0) {
    std::fprintf(stderr, "FAIL: %s allocated %lu time(s)\n", phase,
                 g_allocations);
    ++failures;
  } else {
    std::printf("ok: %s is allocation-free\n", phase);
  }
  g_allocations = 0;
}

}  // namespace

int main() {
  using vsim::obs::kSpanArenaCapacity;
  using vsim::obs::MonotonicNowNs;
  using vsim::obs::QueryTrace;
  using vsim::obs::RenderSpanTree;
  using vsim::obs::SpanArena;
  using vsim::obs::SpanName;
  using vsim::obs::SpanRing;
  using vsim::obs::SpanTreeRecord;
  using vsim::obs::TraceContext;

  // Construction may allocate (ring storage); only the record paths
  // must not.
  SpanRing ring(/*slow_threshold_seconds=*/0.100, 64, 16);
  TraceContext context;
  context.trace_hi = 0x1234;
  context.trace_lo = 0x5678;

  // Warm the monotonic clock (first call may touch vDSO setup paths).
  (void)MonotonicNowNs();

  // --- record build + render + publish, including arena overflow ----
  // A service record over the slow threshold: both rings are written.
  QueryTrace summary{};
  summary.trace_id = 1;
  summary.total_seconds = 0.5;
  g_counting = true;
  {
    SpanArena arena(context, 99);
    const int root = arena.Start(SpanName::kRequest);
    for (size_t i = 0; i + 2 < kSpanArenaCapacity; ++i) {
      const int child =
          arena.Start(SpanName::kFilter, arena.span_id(root));
      arena.SetCounter(child, i);
      arena.End(child);
    }
    arena.End(root);
    // Overflow: the truncation path must count, never allocate.
    for (int i = 0; i < 64; ++i) {
      (void)arena.Start(SpanName::kRefine);
    }
    SpanTreeRecord record;
    RenderSpanTree(arena, summary, &record);
    for (int i = 0; i < 256; ++i) ring.Record(record);
    g_counting = false;
    Check(arena.dropped() > 0, "arena overflow counted");
  }
  CheckNoAllocations("record path");

  // Sanity: both rings actually recorded (snapshots allocate -- that
  // is their contract -- so they run outside the counting phase).
  Check(ring.recorded() == 256, "span ring recorded");
  Check(!ring.Snapshot(4).empty(), "span ring snapshot");
  const std::vector<SpanTreeRecord> slow = ring.Snapshot(4, true);
  Check(!slow.empty() && slow[0].summary.trace_id == 1 &&
            slow[0].summary.trace_hi == context.trace_hi,
        "slow ring snapshot");

  // --- the result-cache hit path -------------------------------------
  // A stored object's shape: 7 vectors of 6 dims, a 7-d centroid and a
  // 42-d cover vector.
  vsim::ObjectRepr stored;
  for (int v = 0; v < 7; ++v) {
    stored.vector_set.vectors.push_back(
        {0.1 * v, 0.2, 0.3 * v, 0.4, 0.5, 0.6 * v});
  }
  stored.centroid.assign(7, 0.25);
  stored.cover_vector.assign(42, 0.5);
  vsim::ServiceResponse hit;
  hit.cache_hit = true;
  hit.generation = 3;
  for (int i = 0; i < 10; ++i) hit.neighbors.push_back({i * 7, 0.1 * i});
  hit.trace_hi = 0x1234;
  hit.trace_lo = 0x5678;
  std::string encoded;
  vsim::net::AppendResponseFrames(1, hit, &encoded);  // sizes the buffer
  QueryTrace hit_summary{};
  hit_summary.trace_id = 2;
  hit_summary.cache_hit = 1;
  uint64_t key_hashes = 0;
  g_counting = true;
  for (int i = 0; i < 16; ++i) {
    vsim::ResultCacheKey key;
    key.digest = vsim::DigestQueryObject(stored);
    key.generation = 3;
    key.k = 10;
    key_hashes += vsim::ResultCacheKeyHash()(key);
    encoded.clear();
    vsim::net::AppendResponseFrames(static_cast<uint64_t>(i), hit, &encoded);
    const uint64_t now = MonotonicNowNs();
    SpanArena arena(context, hit_summary.trace_id);
    const int root = arena.Add(SpanName::kRequest, 0, now, now + 1000);
    arena.Add(SpanName::kQueue, arena.span_id(root), now, now);
    arena.Add(SpanName::kAdmission, arena.span_id(root), now, now);
    SpanTreeRecord record;
    RenderSpanTree(arena, hit_summary, &record);
    ring.Record(record);
  }
  g_counting = false;
  CheckNoAllocations(
      "cache-hit digest, key hash, 10-NN response encode and service record");
  Check(key_hashes != 0 && encoded.size() > 10 * 12, "hit path ran");
  const std::vector<SpanTreeRecord> recent = ring.Snapshot(1);
  Check(!recent.empty() && recent[0].summary.trace_id == 2 &&
            recent[0].span_count == 3 && recent[0].spans[3].span_id == 0,
        "service record published with its three spans, the rest zero");

  // --- refinement: one 7x7 minimal matching --------------------------
  vsim::VectorSet a, b;
  for (int i = 0; i < 7; ++i) {
    a.vectors.push_back({0.1 * i, 1.0, 0.5, 0.3, 0.2 * i, 0.7});
    b.vectors.push_back({0.7, 0.15 * i, 0.4, 0.9 - 0.1 * i, 0.3, 0.25});
  }
  double distance = vsim::VectorSetDistance(a, b);  // resolves the kernels
  g_counting = true;
  for (int i = 0; i < 64; ++i) distance += vsim::VectorSetDistance(a, b);
  g_counting = false;
  CheckNoAllocations("7x7 VectorSetDistance");
  Check(distance > 0.0, "matching distance computed");

  // --- refinement: a prepared 7-vector query, 96 candidates ----------
  // What every engine strategy runs per candidate, in its three
  // classes: ruled out by the row-minimum bound alone (threshold 0),
  // ruled out by the reduction bound on the built matrix (a threshold
  // between the two bounds), and solved by Kuhn-Munkres (threshold
  // 1e9). The candidates are flattened, and their bounds read through
  // the prepared query, before counting starts.
  constexpr int kCandidates = 96;
  std::vector<double> query_values(a.size() * a.dim());
  const vsim::FlatVectorSet query = vsim::FlattenInto(a, query_values.data());
  std::vector<std::vector<double>> candidate_values(kCandidates);
  std::vector<vsim::FlatVectorSet> candidates;
  for (int i = 0; i < kCandidates; ++i) {
    vsim::VectorSet c = b;
    for (vsim::FeatureVector& v : c.vectors) v[i % 6] += 0.01 * i;
    candidate_values[i].resize(c.size() * c.dim());
    candidates.push_back(vsim::FlattenInto(c, candidate_values[i].data()));
  }
  std::vector<double> row_bound(kCandidates), reduction_bound(kCandidates),
      threshold(kCandidates);
  bool bounds_ordered = true;
  {
    const vsim::PreparedQuery prepared(query);
    for (int i = 0; i < kCandidates; ++i) {
      bool solved = true;
      // Below every bound the row-minimum rung decides; at the
      // row-minimum bound itself the reduction rung does, if its bound
      // is higher.
      row_bound[i] = prepared.Distance(candidates[i], -1.0, &solved);
      bounds_ordered = bounds_ordered && !solved;
      reduction_bound[i] =
          prepared.Distance(candidates[i], row_bound[i], &solved);
      bounds_ordered = bounds_ordered && !solved;
      const double between = 0.5 * (row_bound[i] + reduction_bound[i]);
      bounds_ordered = bounds_ordered && row_bound[i] < between &&
                       between < reduction_bound[i];
      threshold[i] = i % 3 == 0 ? 0.0 : i % 3 == 1 ? between : 1e9;
    }
  }
  Check(bounds_ordered, "every candidate's reduction bound exceeds its "
                        "row-minimum bound");
  int by_row_minimum = 0, by_reduction = 0, solved_count = 0;
  g_counting = true;
  {
    const vsim::PreparedQuery prepared(query);
    for (int i = 0; i < kCandidates; ++i) {
      bool solved = false;
      const double d = prepared.Distance(candidates[i], threshold[i], &solved);
      if (solved) {
        ++solved_count;
      } else if (d == row_bound[i]) {
        ++by_row_minimum;
      } else if (d == reduction_bound[i]) {
        ++by_reduction;
      }
      distance += d;
    }
  }
  g_counting = false;
  CheckNoAllocations("prepared 7-vector query refining 96 candidates");
  Check(by_row_minimum == 32 && by_reduction == 32 && solved_count == 32,
        "prepared refinements: 32 pruned by the row-minimum bound, 32 by "
        "the reduction bound, 32 solved");

  // --- refinement: one store-record decode into a reused buffer ------
  const char* tmp = std::getenv("TMPDIR");
  const std::string path = std::string(tmp != nullptr ? tmp : "/tmp") +
                           "/obs_alloc_check_" + std::to_string(getpid()) +
                           ".vspg";
  {
    vsim::StatusOr<vsim::VectorSetStore> store =
        vsim::VectorSetStore::Create(path);
    Check(store.ok() && store->Append(0, a).ok() &&
              store->Append(1, b).ok(),
          "store built");
    if (store.ok()) {
      std::vector<double> buffer;
      vsim::IoStats stats;
      // Warm-up: pulls the page into the pool and sizes the buffer.
      Check(store->GetFlat(1, &buffer, &stats).ok(), "store warm-up read");
      g_counting = true;
      const bool decoded = store->GetFlat(1, &buffer, &stats).ok();
      g_counting = false;
      CheckNoAllocations("store record decode into a reused buffer");
      Check(decoded && buffer.size() == 42 && buffer[6] == b.vectors[1][0],
            "store record decoded");
    }
  }
  std::remove(path.c_str());

  if (failures == 0) {
    std::printf("obs_alloc_check: PASS\n");
    return 0;
  }
  return 1;
}
