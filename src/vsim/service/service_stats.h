// Lock-free serving counters (no allocation, no locks on the record
// path), printable together with the request-latency percentiles of the
// metrics registry's vsim_request_latency_seconds histogram as a
// TablePrinter table.
#ifndef VSIM_SERVICE_SERVICE_STATS_H_
#define VSIM_SERVICE_SERVICE_STATS_H_

#include <atomic>
#include <cstdint>
#include <cstdio>

#include "vsim/common/table_printer.h"
#include "vsim/obs/metrics.h"
#include "vsim/service/result_cache.h"

namespace vsim {

struct ServiceStatsSnapshot {
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t rejected = 0;   // admission-queue backpressure
  uint64_t timed_out = 0;  // deadline passed before execution or a hit
  uint64_t failed = 0;     // invalid requests etc.
  uint64_t snapshot_swaps = 0;  // reindex publications (SwapSnapshot)
  // Every request that reached a worker, failed and timed-out ones
  // included (the registry histogram's population).
  double latency_mean_s = 0.0;
  double latency_p50_s = 0.0;
  double latency_p95_s = 0.0;
  double latency_p99_s = 0.0;
  ResultCacheStats cache;
};

// Thread-safety: every member is a relaxed atomic; any thread may
// record, any thread may snapshot.
// Documented GUARDED_BY exclusion: there is no mutex here by design --
// the record path must stay allocation- and lock-free -- so the
// thread-safety analysis has nothing to check; std::atomic provides
// the synchronization.
class ServiceStats {
 public:
  std::atomic<uint64_t> submitted{0};
  std::atomic<uint64_t> completed{0};
  std::atomic<uint64_t> rejected{0};
  std::atomic<uint64_t> timed_out{0};
  std::atomic<uint64_t> failed{0};
  std::atomic<uint64_t> snapshot_swaps{0};

  // `latency` is the registry's request-latency histogram.
  ServiceStatsSnapshot Snapshot(const ResultCacheStats& cache,
                                const obs::Histogram& latency) const {
    ServiceStatsSnapshot s;
    s.submitted = submitted.load(std::memory_order_relaxed);
    s.completed = completed.load(std::memory_order_relaxed);
    s.rejected = rejected.load(std::memory_order_relaxed);
    s.timed_out = timed_out.load(std::memory_order_relaxed);
    s.failed = failed.load(std::memory_order_relaxed);
    s.snapshot_swaps = snapshot_swaps.load(std::memory_order_relaxed);
    s.latency_mean_s = latency.MeanSeconds();
    s.latency_p50_s = latency.PercentileSeconds(0.50);
    s.latency_p95_s = latency.PercentileSeconds(0.95);
    s.latency_p99_s = latency.PercentileSeconds(0.99);
    s.cache = cache;
    return s;
  }
};

inline void PrintServiceStats(const ServiceStatsSnapshot& s,
                              std::FILE* out = stdout) {
  TablePrinter table({"metric", "value"});
  table.AddRow({"requests submitted", std::to_string(s.submitted)});
  table.AddRow({"requests completed", std::to_string(s.completed)});
  table.AddRow({"rejected (queue full)", std::to_string(s.rejected)});
  table.AddRow({"timed out (deadline)", std::to_string(s.timed_out)});
  table.AddRow({"failed", std::to_string(s.failed)});
  table.AddRow({"snapshot swaps", std::to_string(s.snapshot_swaps)});
  table.AddRow({"cache hits", std::to_string(s.cache.hits)});
  table.AddRow({"cache misses", std::to_string(s.cache.misses)});
  table.AddRow({"cache evictions", std::to_string(s.cache.evictions)});
  table.AddRow(
      {"cache hit rate", TablePrinter::Num(100.0 * s.cache.HitRate()) + "%"});
  table.AddRow({"latency mean",
                TablePrinter::Num(s.latency_mean_s * 1e3, 3) + " ms"});
  table.AddRow({"latency p50 <=",
                TablePrinter::Num(s.latency_p50_s * 1e3, 3) + " ms"});
  table.AddRow({"latency p95 <=",
                TablePrinter::Num(s.latency_p95_s * 1e3, 3) + " ms"});
  table.AddRow({"latency p99 <=",
                TablePrinter::Num(s.latency_p99_s * 1e3, 3) + " ms"});
  table.Print(out);
}

}  // namespace vsim

#endif  // VSIM_SERVICE_SERVICE_STATS_H_
