// Unified serving metrics (docs/OBSERVABILITY.md): lock-free
// counters/gauges/histograms registered by name (+ optional Prometheus
// labels) in a MetricsRegistry, with text exposition in the Prometheus
// format. This is the single place the serving stack's statistics
// surface from -- the service's own request counters are registry
// instruments; ResultCacheStats, IoStats, the span ring's counters and
// ServerStats are collected -- so a dashboard, `vsim stats` and
// QueryService::PrintStats see one coherent metric namespace.
//
// Design contract, matching the paper's cost-model instrumentation
// needs (Section 5.4 charges every page access and byte read -- these
// counters fire on the query hot path):
//
//   - The *record* path (Counter::Increment, Gauge::Set,
//     Histogram::Record) is allocation-free and lock-free: relaxed
//     atomics only. Any thread may record concurrently with any other
//     and with exposition.
//   - Registration and exposition take a mutex and may allocate; they
//     are rare (startup / scrape time) and never contend with
//     recording. Registered instruments live in deques, so the
//     pointers handed out stay valid for the registry's lifetime.
//   - Collector callbacks let existing externally-owned atomics
//     (ResultCacheStats, SpanRing, net::ServerStats) appear in the
//     exposition without double bookkeeping: a collector is invoked at
//     scrape time and appends name/value samples.
//
// Thread-safety: all public methods of all classes here are safe from
// any thread. Collectors run under the registry mutex; they must not
// call back into the same registry.
#ifndef VSIM_OBS_METRICS_H_
#define VSIM_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "vsim/common/thread_annotations.h"

namespace vsim::obs {

// Monotone event count. Relaxed ordering: totals converge, individual
// reads may lag concurrent increments (fine for telemetry).
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Last-write-wins instantaneous value (e.g. the current snapshot
// generation). Stored as double bits so one type covers ratios and
// integral gauges alike (integers are exact up to 2^53).
class Gauge {
 public:
  void Set(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    bits_.store(bits, std::memory_order_relaxed);
  }
  double Value() const {
    const uint64_t bits = bits_.load(std::memory_order_relaxed);
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

 private:
  std::atomic<uint64_t> bits_{0};  // 0 bits == 0.0
};

// Fixed geometric-bucket histogram over seconds. Buckets cover
// [2^i, 2^(i+1)) microseconds; bucket 0 additionally absorbs
// sub-microsecond samples and the last bucket absorbs everything past
// ~2^38 us (~3 days). Percentiles report a bucket's upper bound, so
// they over- rather than under-state latency by at most 2x -- plenty
// for a serving dashboard. No allocation, no locks on the record path.
class Histogram {
 public:
  static constexpr int kBuckets = 40;

  void Record(double seconds) {
    const double us = seconds * 1e6;
    int bucket = 0;
    if (us >= 1.0) {
      bucket = static_cast<int>(std::log2(us)) + 1;
      if (bucket >= kBuckets) bucket = kBuckets - 1;
    }
    counts_[bucket].fetch_add(1, std::memory_order_relaxed);
    // Stash the running sum in nanoseconds for a cheap mean.
    total_ns_.fetch_add(static_cast<uint64_t>(us * 1e3),
                        std::memory_order_relaxed);
  }

  uint64_t TotalCount() const {
    uint64_t total = 0;
    for (const auto& c : counts_) total += c.load(std::memory_order_relaxed);
    return total;
  }

  double SumSeconds() const {
    return static_cast<double>(total_ns_.load(std::memory_order_relaxed)) *
           1e-9;
  }

  double MeanSeconds() const {
    const uint64_t n = TotalCount();
    if (n == 0) return 0.0;
    return SumSeconds() / static_cast<double>(n);
  }

  // Upper bound (seconds) of the bucket holding the p-th percentile
  // sample, p in [0, 1]. p = 0 is the infimum of the sample set, which
  // no recorded sample can undershoot: 0.
  double PercentileSeconds(double p) const {
    const uint64_t n = TotalCount();
    if (n == 0) return 0.0;
    const uint64_t rank =
        static_cast<uint64_t>(std::ceil(p * static_cast<double>(n)));
    if (rank == 0) return 0.0;  // p == 0: nothing to bound from above
    uint64_t seen = 0;
    for (int b = 0; b < kBuckets; ++b) {
      seen += counts_[b].load(std::memory_order_relaxed);
      if (seen >= rank) {
        return BucketUpperBoundSeconds(b);
      }
    }
    return BucketUpperBoundSeconds(kBuckets - 1);
  }

  // Upper bound (seconds) of bucket b: 2^b microseconds.
  static double BucketUpperBoundSeconds(int b) {
    return std::ldexp(1.0, b) * 1e-6;
  }

  uint64_t BucketCount(int b) const {
    return counts_[b].load(std::memory_order_relaxed);
  }

  void Reset() {
    for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
    total_ns_.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<uint64_t>, kBuckets> counts_{};
  std::atomic<uint64_t> total_ns_{0};
};

// One scrape-time sample contributed by a collector callback.
struct MetricSample {
  enum class Type { kCounter, kGauge };
  std::string name;    // e.g. "vsim_requests_completed_total"
  std::string help;    // one-line description (may be empty on repeats)
  std::string labels;  // pre-formatted `key="value",...` or empty
  Type type = Type::kCounter;
  double value = 0.0;
};

// Appends samples for externally-owned instruments at exposition time.
using CollectorFn = std::function<void(std::vector<MetricSample>*)>;

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Registration returns a pointer that stays valid for the registry's
  // lifetime; recording through it never touches the registry again.
  // `name` must match [a-zA-Z_][a-zA-Z0-9_]*; `labels` is either empty
  // or pre-formatted `key="value"` pairs (no braces). Registering the
  // same name+labels twice returns the existing instrument.
  Counter* RegisterCounter(const std::string& name, const std::string& help,
                           const std::string& labels = "") EXCLUDES(mu_);
  Gauge* RegisterGauge(const std::string& name, const std::string& help,
                       const std::string& labels = "") EXCLUDES(mu_);
  Histogram* RegisterHistogram(const std::string& name,
                               const std::string& help,
                               const std::string& labels = "") EXCLUDES(mu_);

  // Collector registration; the returned id unregisters it. Collectors
  // must outlive their registration (unregister before destroying
  // captured state).
  int RegisterCollector(CollectorFn fn) EXCLUDES(mu_);
  void UnregisterCollector(int id) EXCLUDES(mu_);

  // Prometheus text exposition (version 0.0.4): `# HELP` / `# TYPE`
  // per family, `name{labels} value` samples, histogram families as
  // cumulative `_bucket{le="..."}` plus `_sum` and `_count`.
  std::string TextExposition() const EXCLUDES(mu_);

 private:
  template <typename T>
  struct Entry {
    std::string name;
    std::string help;
    std::string labels;
    T* instrument = nullptr;
  };

  mutable Mutex mu_{"obs.registry"};
  // Deques: grow without moving, so instrument pointers stay stable.
  std::deque<Counter> counters_ GUARDED_BY(mu_);
  std::deque<Gauge> gauges_ GUARDED_BY(mu_);
  std::deque<Histogram> histograms_ GUARDED_BY(mu_);
  std::vector<Entry<Counter>> counter_entries_ GUARDED_BY(mu_);
  std::vector<Entry<Gauge>> gauge_entries_ GUARDED_BY(mu_);
  std::vector<Entry<Histogram>> histogram_entries_ GUARDED_BY(mu_);
  std::vector<std::pair<int, CollectorFn>> collectors_ GUARDED_BY(mu_);
  int next_collector_id_ GUARDED_BY(mu_) = 1;
};

}  // namespace vsim::obs

#endif  // VSIM_OBS_METRICS_H_
