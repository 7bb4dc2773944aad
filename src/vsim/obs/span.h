// Hierarchical per-request span tracing (docs/OBSERVABILITY.md
// "Tracing"): a bounded, allocation-free span tree recorded along the
// serving pipeline -- accept, decode, admission, queue, filter,
// refine, encode, flush -- each span carrying one paper-native
// counter, all spans sharing one 16-byte trace id that travels on the
// VSNP wire (docs/PROTOCOL.md §12) so a remote query is attributable
// end to end, and later across the Lemma-2 scatter-gather shards the
// ROADMAP plans.
//
// The model is the distributed-tracing one: each layer (net transport,
// service worker) records its *own* spans into a fixed-capacity
// per-request SpanArena and publishes the finished tree into the
// service's SpanRing keyed by the shared trace id. Nothing is handed
// across threads mid-request; the export side (obs/trace_export.h)
// groups trees by trace id and nests spans by timestamp, which is
// sound because every layer stamps the same CLOCK_MONOTONIC timebase.
// The service layer's record is the request's one record: its
// QueryTrace summary (obs/query_trace.h) rides in the same ring slot
// as its spans.
//
// Concurrency and allocation contract (tested by tests/obs_alloc_check
// and the TSan Span* suites):
//   - SpanArena is a per-request value: fixed inline storage
//     (kSpanArenaCapacity spans), no heap, no locks. A request that
//     outgrows the arena degrades to a counted `spans_dropped`, never
//     an allocation.
//   - SpanRing::Record publishes a finished record through a per-slot
//     seqlock: lock-free, allocation-free, lossy under >= capacity
//     concurrent writers.
//   - MonotonicNowNs() is the one sanctioned timing entry point for
//     service/ and net/ hot paths (the vsim-lint `raw-clock` rule
//     forbids direct clock_gettime / steady_clock::now() there, so
//     every stage timestamp is attributable to a span).
#ifndef VSIM_OBS_SPAN_H_
#define VSIM_OBS_SPAN_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "vsim/obs/query_trace.h"

namespace vsim::obs {

// Nanoseconds on the process-wide monotonic clock. All spans from all
// layers stamp this single timebase, so cross-thread nesting by
// timestamp is meaningful within one process.
uint64_t MonotonicNowNs();

// The wire-propagated trace identity: a 16-byte trace id (two words)
// plus the span id of the remote parent (0 = the trace root is local).
// Generated client-side (net::Client / `vsim remote-query`) when
// absent; a server receiving a request without one mints its own.
struct TraceContext {
  uint64_t trace_hi = 0;
  uint64_t trace_lo = 0;
  uint64_t parent_span_id = 0;

  bool valid() const { return (trace_hi | trace_lo) != 0; }
};

// Mints a fresh random trace context (parent_span_id = 0). Used by the
// client when a request carries none, and by server transports so the
// net- and service-layer trees of an untraced request still share one
// id. Thread-safe, allocation-free after first use, and not a clock
// (the raw-clock lint rule stays satisfiable on paths that mint).
TraceContext MintTraceContext();

// The span taxonomy (docs/OBSERVABILITY.md has the full table). Values
// are part of the SpanRecord wire/ring encoding: append only, and a
// removed value stays retired -- never reused, still decodable.
enum class SpanName : uint8_t {
  kRequest = 0,    // service root: admission to completion
  kAccept = 1,     // net: request frame read off the socket
  kDecode = 2,     // net: payload decode
  kAdmission = 3,  // service: admission-control check
  kQueue = 4,      // service: admission-queue wait
  // 5 is retired (a former engine pre-filter stage): never emitted, but
  // span trees from older peers may carry it.
  kFilter = 6,  // engine: Lemma-2 filter (counter: filter_hits)
  kRefine = 7,  // engine: exact refinement (counter: hungarian runs)
  kEncode = 8,  // net: response frame encode
  kFlush = 9,   // net: response bytes onto the socket
};
inline constexpr int kNumSpanNames = 10;

const char* SpanNameString(SpanName name);

// One node of the tree. Trivially copyable and sized in whole 64-bit
// words: published through the SpanRing seqlock and encoded field by
// field on the wire. No default member initializers, so the arrays of
// unused slots below are not filled on every request; `SpanRecord{}`
// is all zeros.
struct SpanRecord {
  uint64_t span_id;
  uint64_t parent_span_id;  // 0 = root of this layer's tree
  uint64_t start_ns;
  uint64_t end_ns;
  uint64_t counter;  // paper-native per-span count (see taxonomy)
  uint8_t name;      // SpanName enumerator
  uint8_t padding[7];
};

static_assert(std::is_trivially_copyable_v<SpanRecord>,
              "SpanRecord is published through a seqlock word copy");
static_assert(sizeof(SpanRecord) % 8 == 0,
              "SpanRecord must be sized in whole 64-bit words");

// Fixed arena capacity: the full accept->flush pipeline uses ~10 spans,
// so 32 leaves headroom for future per-shard children without making
// the ring record heavyweight.
inline constexpr size_t kSpanArenaCapacity = 32;

// Per-request span builder with fixed inline storage. Not thread-safe:
// one arena belongs to one request on one thread (each layer uses its
// own arena). Record paths never allocate; exceeding the capacity
// increments dropped() and returns kInvalidSpan.
class SpanArena {
 public:
  static constexpr int kInvalidSpan = -1;

  // `span_id_seed` differentiates span ids across the layers of one
  // trace (each layer seeds with its own salt); ids are derived
  // deterministically from seed and slot index.
  SpanArena(const TraceContext& context, uint64_t span_id_seed);

  // Opens a span starting now. Returns the span's arena index, or
  // kInvalidSpan when the arena is full (counted in dropped()).
  int Start(SpanName name, uint64_t parent_span_id = 0);
  // Closes span `index` now; no-op for kInvalidSpan.
  void End(int index);

  // Adds a fully formed span with explicit timestamps (used to
  // synthesize engine-stage children from measured stage durations).
  int Add(SpanName name, uint64_t parent_span_id, uint64_t start_ns,
          uint64_t end_ns, uint64_t counter = 0);

  void SetCounter(int index, uint64_t counter);
  // The id assigned to span `index` (0 for kInvalidSpan), for
  // parent-linking children.
  uint64_t span_id(int index) const;

  const TraceContext& context() const { return context_; }
  uint32_t count() const { return count_; }
  uint32_t dropped() const { return dropped_; }
  // Span `index` < count().
  const SpanRecord& span(size_t index) const { return spans_[index]; }

 private:
  TraceContext context_;
  uint64_t span_id_seed_;
  uint32_t count_ = 0;
  uint32_t dropped_ = 0;
  std::array<SpanRecord, kSpanArenaCapacity> spans_;  // [0, count_) set
};

// The finished tree of one layer for one request, as published into
// the SpanRing. POD sized in whole 64-bit words (seqlock + wire). Only
// spans[0, span_count) are meaningful: a default-initialized record
// leaves the rest unset (`SpanTreeRecord{}` zeroes them), and readers
// -- the ring, the wire encoder, the trace export -- stop at
// span_count.
struct SpanTreeRecord {
  // A service-layer record's summary is the request's whole QueryTrace
  // (trace_id != 0). A net-layer tree's holds only the trace-id pair
  // (trace_hi, trace_lo); its trace_id is 0.
  QueryTrace summary;
  uint32_t span_count = 0;
  uint32_t spans_dropped = 0;
  SpanRecord spans[kSpanArenaCapacity];
};

static_assert(std::is_trivially_copyable_v<SpanTreeRecord>,
              "SpanTreeRecord is published through a seqlock word copy");
static_assert(sizeof(SpanTreeRecord) % 8 == 0,
              "SpanTreeRecord must be sized in whole 64-bit words");

// Renders the arena into a ring-publishable record: `summary` copied,
// except that its trace-id pair is the arena's context, and the
// arena's count() spans. A layer that summarizes nothing passes a
// default QueryTrace.
void RenderSpanTree(const SpanArena& arena, const QueryTrace& summary,
                    SpanTreeRecord* out);

// Lock-free ring of recent records, plus a slow sub-ring that also
// keeps every service record (summary.trace_id != 0) whose
// summary.total_seconds is at or above the slow threshold, so a burst
// of fast requests cannot evict the slow one being hunted.
//
// Each slot is a per-slot *seqlock*: an atomic sequence number that is
// odd while a write is in progress, plus the record stored as relaxed
// atomic 64-bit words (a plain struct would be a data race under
// concurrent snapshot reads). A write stores, and a read loads, only
// the words of the summary, the counts and the span_count spans in use
// (about a fifth of a full record for a typical request). A writer
// claims its round-robin slot by CAS-ing the sequence from even to odd;
// if another writer got there first (possible only when >= capacity
// records race at once) the write is dropped and counted -- lossy by
// design, never blocking.
// Snapshot reads a slot's words between two sequence loads and skips
// the slot if the sequence changed or was odd (torn read).
//
// Thread-safety: Record and Snapshot are safe from any thread, any
// number of threads, with no locks anywhere.
class SpanRing {
 public:
  // Capacities are clamped to >= 1.
  explicit SpanRing(double slow_threshold_seconds = 0.100,
                    size_t capacity = 256, size_t slow_capacity = 64);

  SpanRing(const SpanRing&) = delete;
  SpanRing& operator=(const SpanRing&) = delete;

  // Lock- and allocation-free; writes the recent ring, and the slow
  // ring too for a slow service record.
  void Record(const SpanTreeRecord& record);

  // Most-recent-first records of the recent ring (or of the slow ring
  // with slow_only), at most `max_records`, their unused span slots
  // zeroed. A slot overwritten mid-read is skipped, not torn.
  std::vector<SpanTreeRecord> Snapshot(size_t max_records,
                                       bool slow_only = false) const;

  double slow_threshold_seconds() const { return slow_threshold_; }
  size_t capacity() const { return ring_.slots.size(); }
  // Records offered to Record, each counted once.
  uint64_t recorded() const {
    return recorded_.load(std::memory_order_relaxed);
  }
  // Ring writes lost to slot contention (a slow record can lose either
  // of its two writes).
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

 private:
  static constexpr size_t kRecordWords = sizeof(SpanTreeRecord) / 8;
  // The summary and counts: every word before the spans.
  static constexpr size_t kHeaderWords = offsetof(SpanTreeRecord, spans) / 8;
  static_assert(offsetof(SpanTreeRecord, spans) % 8 == 0);

  struct Slot {
    std::atomic<uint64_t> seq{0};  // odd while a write is in progress
    std::array<std::atomic<uint64_t>, kRecordWords> words{};
  };

  struct Ring {
    explicit Ring(size_t capacity) : slots(capacity == 0 ? 1 : capacity) {}
    std::atomic<uint64_t> tickets{0};  // writes attempted
    std::vector<Slot> slots;
  };

  // Slot words holding a record with `span_count` spans (clamped to
  // the capacity).
  static size_t RecordWords(uint32_t span_count);
  void RecordInto(Ring* ring, const SpanTreeRecord& record);
  static bool WriteSlot(Slot* slot, const SpanTreeRecord& record);
  static bool ReadSlot(const Slot& slot, SpanTreeRecord* record);

  const double slow_threshold_;
  Ring ring_;
  Ring slow_ring_;
  std::atomic<uint64_t> recorded_{0};
  std::atomic<uint64_t> dropped_{0};
};

}  // namespace vsim::obs

#endif  // VSIM_OBS_SPAN_H_
