#include "vsim/obs/span.h"

#include <time.h>

#include <cstddef>
#include <cstring>
#include <random>

namespace vsim::obs {
namespace {

// SplitMix64 finalizer: turns (seed, index) into a well-mixed span id
// without any shared state or RNG on the record path.
uint64_t MixSpanId(uint64_t seed, uint64_t index) {
  uint64_t z = seed + (index + 1) * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z = z ^ (z >> 31);
  // Span id 0 means "no parent" everywhere; never hand it out.
  return z == 0 ? 1 : z;
}

}  // namespace

uint64_t MonotonicNowNs() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}

TraceContext MintTraceContext() {
  struct Seed {
    uint64_t hi;
    uint64_t lo;
    Seed() {
      std::random_device rd;
      hi = (static_cast<uint64_t>(rd()) << 32) | rd();
      lo = (static_cast<uint64_t>(rd()) << 32) | rd();
    }
  };
  static const Seed seed;
  static std::atomic<uint64_t> counter{0};
  const uint64_t n = counter.fetch_add(1, std::memory_order_relaxed);
  TraceContext context;
  context.trace_hi = MixSpanId(seed.hi, n);
  context.trace_lo = MixSpanId(seed.lo, ~n);
  return context;
}

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kRequest:
      return "request";
    case SpanName::kAccept:
      return "accept";
    case SpanName::kDecode:
      return "decode";
    case SpanName::kAdmission:
      return "admission";
    case SpanName::kQueue:
      return "queue";
    case SpanName::kFilter:
      return "filter";
    case SpanName::kRefine:
      return "refine";
    case SpanName::kEncode:
      return "encode";
    case SpanName::kFlush:
      return "flush";
  }
  return "unknown";
}

SpanArena::SpanArena(const TraceContext& context, uint64_t span_id_seed)
    : context_(context),
      span_id_seed_(span_id_seed ^ context.trace_hi ^ context.trace_lo) {}

int SpanArena::Start(SpanName name, uint64_t parent_span_id) {
  return Add(name, parent_span_id, MonotonicNowNs(), 0);
}

void SpanArena::End(int index) {
  if (index < 0 || static_cast<uint32_t>(index) >= count_) return;
  spans_[static_cast<size_t>(index)].end_ns = MonotonicNowNs();
}

int SpanArena::Add(SpanName name, uint64_t parent_span_id, uint64_t start_ns,
                   uint64_t end_ns, uint64_t counter) {
  if (count_ >= kSpanArenaCapacity) {
    ++dropped_;
    return kInvalidSpan;
  }
  const int index = static_cast<int>(count_++);
  spans_[static_cast<size_t>(index)] = SpanRecord{
      MixSpanId(span_id_seed_, static_cast<uint64_t>(index)),
      parent_span_id,
      start_ns,
      end_ns,
      counter,
      static_cast<uint8_t>(name),
      {}};
  return index;
}

void SpanArena::SetCounter(int index, uint64_t counter) {
  if (index < 0 || static_cast<uint32_t>(index) >= count_) return;
  spans_[static_cast<size_t>(index)].counter = counter;
}

uint64_t SpanArena::span_id(int index) const {
  if (index < 0 || static_cast<uint32_t>(index) >= count_) return 0;
  return spans_[static_cast<size_t>(index)].span_id;
}

void RenderSpanTree(const SpanArena& arena, const QueryTrace& summary,
                    SpanTreeRecord* out) {
  out->summary = summary;
  out->summary.trace_hi = arena.context().trace_hi;
  out->summary.trace_lo = arena.context().trace_lo;
  out->span_count = arena.count();
  out->spans_dropped = arena.dropped();
  for (uint32_t i = 0; i < arena.count(); ++i) {
    out->spans[i] = arena.span(i);
  }
}

SpanRing::SpanRing(double slow_threshold_seconds, size_t capacity,
                   size_t slow_capacity)
    : slow_threshold_(slow_threshold_seconds),
      ring_(capacity),
      slow_ring_(slow_capacity) {}

size_t SpanRing::RecordWords(uint32_t span_count) {
  const size_t spans =
      span_count < kSpanArenaCapacity ? span_count : kSpanArenaCapacity;
  return kHeaderWords + spans * (sizeof(SpanRecord) / 8);
}

bool SpanRing::WriteSlot(Slot* slot, const SpanTreeRecord& record) {
  uint64_t seq = slot->seq.load(std::memory_order_relaxed);
  if (seq & 1) return false;  // another writer owns the slot: lossy drop
  if (!slot->seq.compare_exchange_strong(seq, seq + 1,
                                         std::memory_order_acq_rel,
                                         std::memory_order_relaxed)) {
    return false;
  }
  const size_t words = RecordWords(record.span_count);
  const auto* bytes = reinterpret_cast<const unsigned char*>(&record);
  for (size_t i = 0; i < words; ++i) {
    uint64_t word;
    std::memcpy(&word, bytes + 8 * i, 8);
    slot->words[i].store(word, std::memory_order_relaxed);
  }
  slot->seq.store(seq + 2, std::memory_order_release);
  return true;
}

bool SpanRing::ReadSlot(const Slot& slot, SpanTreeRecord* record) {
  const uint64_t seq1 = slot.seq.load(std::memory_order_acquire);
  if (seq1 == 0 || (seq1 & 1)) return false;  // empty or mid-write
  uint64_t words[kRecordWords];
  for (size_t i = 0; i < kHeaderWords; ++i) {
    words[i] = slot.words[i].load(std::memory_order_relaxed);
  }
  // A torn span_count is caught by the sequence check below;
  // RecordWords clamps it, so it cannot overrun the slot first.
  uint32_t span_count;
  std::memcpy(&span_count,
              reinterpret_cast<const unsigned char*>(words) +
                  offsetof(SpanTreeRecord, span_count),
              sizeof(span_count));
  const size_t used = RecordWords(span_count);
  for (size_t i = kHeaderWords; i < used; ++i) {
    words[i] = slot.words[i].load(std::memory_order_relaxed);
  }
  std::atomic_thread_fence(std::memory_order_acquire);
  if (slot.seq.load(std::memory_order_relaxed) != seq1) return false;
  std::memcpy(record, words, used * 8);
  return true;
}

void SpanRing::RecordInto(Ring* ring, const SpanTreeRecord& record) {
  const uint64_t ticket =
      ring->tickets.fetch_add(1, std::memory_order_relaxed);
  if (!WriteSlot(&ring->slots[ticket % ring->slots.size()], record)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
}

void SpanRing::Record(const SpanTreeRecord& record) {
  recorded_.fetch_add(1, std::memory_order_relaxed);
  RecordInto(&ring_, record);
  if (record.summary.trace_id != 0 &&
      record.summary.total_seconds >= slow_threshold_) {
    RecordInto(&slow_ring_, record);
  }
}

std::vector<SpanTreeRecord> SpanRing::Snapshot(size_t max_records,
                                               bool slow_only) const {
  const Ring& ring = slow_only ? slow_ring_ : ring_;
  std::vector<SpanTreeRecord> out;
  const uint64_t newest = ring.tickets.load(std::memory_order_acquire);
  const size_t capacity = ring.slots.size();
  const size_t walk = newest < capacity ? static_cast<size_t>(newest) : capacity;
  out.reserve(walk < max_records ? walk : max_records);
  // Newest first: walk backwards from the most recently claimed slot.
  for (size_t i = 0; i < walk && out.size() < max_records; ++i) {
    SpanTreeRecord record{};
    if (ReadSlot(ring.slots[(newest - 1 - i) % capacity], &record)) {
      out.push_back(record);
    }
  }
  return out;
}

}  // namespace vsim::obs
