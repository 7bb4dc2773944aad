// Per-request trace record (docs/OBSERVABILITY.md): everything needed
// to answer "why was this query slow?" after the fact -- per-stage wall
// time plus the paper-native counters of the filter-and-refine pipeline
// (Section 4.3 / Table 2): how many candidates the Lemma-2 centroid
// filter produced, how many reached the O(k^3) Kuhn-Munkres refinement,
// and what the charged I/O cost model billed.
//
// It is the summary of the request's one SpanTreeRecord (obs/span.h).
// The struct is a trivially-copyable POD sized in whole 64-bit words so
// the span ring can publish it through a seqlock of atomic words and
// the wire protocol can encode it field by field (net/protocol.h,
// kStatsResponse frames).
#ifndef VSIM_OBS_QUERY_TRACE_H_
#define VSIM_OBS_QUERY_TRACE_H_

#include <cstdint>
#include <type_traits>

namespace vsim::obs {

struct QueryTrace {
  uint64_t trace_id = 0;    // service-assigned, monotone per service
  uint64_t generation = 0;  // snapshot generation the request executed on

  // Request shape. kind/strategy hold the QueryKind / QueryStrategy
  // enumerator values; status_code holds the StatusCode enumerator of
  // the completion (0 = OK).
  uint8_t kind = 0;
  uint8_t strategy = 0;
  uint8_t cache_hit = 0;
  uint8_t status_code = 0;
  int32_t k = 0;
  double eps = 0.0;

  // Per-stage wall time (seconds). queue = admission to worker pickup;
  // total = admission to completion; cpu = engine execution;
  // filter/refine split the cpu time of filter-and-refine strategies
  // (zero where a strategy has no such split -- see
  // docs/OBSERVABILITY.md for the per-strategy attribution table).
  double queue_seconds = 0.0;
  double total_seconds = 0.0;
  double cpu_seconds = 0.0;
  double filter_seconds = 0.0;
  double refine_seconds = 0.0;

  // Paper-native counters (zero on cache hits and failures).
  uint64_t filter_hits = 0;            // candidates the filter produced
  uint64_t candidates_refined = 0;     // exact distance evaluations
  uint64_t hungarian_invocations = 0;  // Kuhn-Munkres runs
  uint64_t page_accesses = 0;          // charged cost model (8 ms/page)
  uint64_t bytes_read = 0;             // charged cost model (200 ns/byte)

  // Wire-propagated trace identity (obs/span.h, docs/PROTOCOL.md §12):
  // the 16-byte distributed trace id this request belongs to, zero when
  // the client sent none and the server minted only a local trace.
  // These travel as tolerant trailing data on the stats wire; older
  // peers decode zero.
  uint64_t trace_hi = 0;
  uint64_t trace_lo = 0;
};

static_assert(std::is_trivially_copyable_v<QueryTrace>,
              "QueryTrace is published through a seqlock word copy");
static_assert(sizeof(QueryTrace) % 8 == 0,
              "QueryTrace must be sized in whole 64-bit words");

}  // namespace vsim::obs

#endif  // VSIM_OBS_QUERY_TRACE_H_
