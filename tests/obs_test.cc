// Observability-layer tests: metrics registry exposition, histogram
// bucket boundaries / overflow / the p=0 percentile contract, and the
// IoStats counters under concurrent mutation (run under TSan via
// tools/check_tsan.sh -- the record paths must be data-race free by
// construction, not by luck). The span ring's tests, slow sub-ring
// included, are in span_test.cc.
#include "vsim/obs/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "vsim/index/io_stats.h"

namespace vsim::obs {
namespace {

// --- counters and gauges ---------------------------------------------

TEST(ObsCounterTest, IncrementAndReset) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.Value(), 42u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(ObsGaugeTest, SetOverwrites) {
  Gauge g;
  EXPECT_EQ(g.Value(), 0.0);
  g.Set(3.5);
  EXPECT_EQ(g.Value(), 3.5);
  g.Set(-7.0);
  EXPECT_EQ(g.Value(), -7.0);
}

// --- histogram -------------------------------------------------------

TEST(ObsHistogramTest, BucketBoundaries) {
  // Buckets cover [2^(b-1), 2^b) us for b >= 1; bucket 0 absorbs
  // sub-microsecond samples. Exercise the exact boundary values.
  Histogram h;
  h.Record(0.5e-6);  // < 1 us -> bucket 0
  EXPECT_EQ(h.BucketCount(0), 1u);
  h.Record(1.0e-6);  // [1, 2) us -> bucket 1
  EXPECT_EQ(h.BucketCount(1), 1u);
  h.Record(1.99e-6);  // still bucket 1
  EXPECT_EQ(h.BucketCount(1), 2u);
  h.Record(2.0e-6);  // [2, 4) us -> bucket 2
  h.Record(3.0e-6);
  EXPECT_EQ(h.BucketCount(2), 2u);
  h.Record(4.0e-6);  // [4, 8) us -> bucket 3
  EXPECT_EQ(h.BucketCount(3), 1u);
  EXPECT_EQ(h.TotalCount(), 6u);
  // Bucket upper bound b is 2^b us.
  EXPECT_DOUBLE_EQ(Histogram::BucketUpperBoundSeconds(0), 1e-6);
  EXPECT_DOUBLE_EQ(Histogram::BucketUpperBoundSeconds(1), 2e-6);
  EXPECT_DOUBLE_EQ(Histogram::BucketUpperBoundSeconds(10), 1024e-6);
}

TEST(ObsHistogramTest, OverflowLandsInLastBucket) {
  Histogram h;
  h.Record(1e6);  // ~11.5 days, far past the last bucket boundary
  EXPECT_EQ(h.BucketCount(Histogram::kBuckets - 1), 1u);
  EXPECT_DOUBLE_EQ(
      h.PercentileSeconds(1.0),
      Histogram::BucketUpperBoundSeconds(Histogram::kBuckets - 1));
}

TEST(ObsHistogramTest, PercentileZeroIsZero) {
  // Regression: p = 0 used to report the first non-empty bucket's upper
  // bound. The 0th percentile bounds no sample from above; it must be 0.
  Histogram h;
  h.Record(0.010);
  h.Record(0.020);
  EXPECT_EQ(h.PercentileSeconds(0.0), 0.0);
  EXPECT_GT(h.PercentileSeconds(0.5), 0.0);
}

TEST(ObsHistogramTest, PercentilesAreMonotone) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.Record(i * 1e-5);
  double prev = 0.0;
  for (const double p : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0}) {
    const double v = h.PercentileSeconds(p);
    EXPECT_GE(v, prev) << "p=" << p;
    prev = v;
  }
  // p50 of a uniform 10us..1ms sweep sits near the middle, and the
  // bucket upper bound may overstate by at most 2x.
  EXPECT_GE(h.PercentileSeconds(0.5), 50e-5 * 0.5);
  EXPECT_LE(h.PercentileSeconds(0.5), 50e-5 * 2.0);
}

TEST(ObsHistogramTest, SumAndMeanTrackRecordedTime) {
  Histogram h;
  EXPECT_EQ(h.MeanSeconds(), 0.0);
  h.Record(0.001);
  h.Record(0.003);
  EXPECT_NEAR(h.SumSeconds(), 0.004, 1e-6);
  EXPECT_NEAR(h.MeanSeconds(), 0.002, 1e-6);
  h.Reset();
  EXPECT_EQ(h.TotalCount(), 0u);
  EXPECT_EQ(h.SumSeconds(), 0.0);
}

// --- registry exposition ---------------------------------------------

TEST(ObsRegistryTest, CounterExpositionWithHelpTypeAndLabels) {
  MetricsRegistry registry;
  Counter* plain = registry.RegisterCounter("test_requests_total",
                                            "Requests handled.");
  Counter* filter = registry.RegisterCounter(
      "test_queries_total", "Per-strategy queries.", "strategy=\"filter\"");
  Counter* scan = registry.RegisterCounter(
      "test_queries_total", "Per-strategy queries.", "strategy=\"scan\"");
  plain->Increment(3);
  filter->Increment(5);
  scan->Increment(7);
  const std::string text = registry.TextExposition();
  EXPECT_NE(text.find("# HELP test_requests_total Requests handled.\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE test_requests_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_requests_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("test_queries_total{strategy=\"filter\"} 5\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_queries_total{strategy=\"scan\"} 7\n"),
            std::string::npos);
  // One HELP/TYPE block per family, not per labeled instrument.
  size_t help_count = 0;
  for (size_t pos = text.find("# HELP test_queries_total");
       pos != std::string::npos;
       pos = text.find("# HELP test_queries_total", pos + 1)) {
    ++help_count;
  }
  EXPECT_EQ(help_count, 1u);
}

TEST(ObsRegistryTest, DuplicateRegistrationReturnsSameInstrument) {
  MetricsRegistry registry;
  Counter* a = registry.RegisterCounter("dup_total", "x");
  Counter* b = registry.RegisterCounter("dup_total", "x");
  EXPECT_EQ(a, b);
  Counter* other = registry.RegisterCounter("dup_total", "x", "l=\"1\"");
  EXPECT_NE(a, other);
  Gauge* g1 = registry.RegisterGauge("dup_gauge", "x");
  Gauge* g2 = registry.RegisterGauge("dup_gauge", "x");
  EXPECT_EQ(g1, g2);
  Histogram* h1 = registry.RegisterHistogram("dup_seconds", "x");
  Histogram* h2 = registry.RegisterHistogram("dup_seconds", "x");
  EXPECT_EQ(h1, h2);
}

TEST(ObsRegistryTest, GaugeExposition) {
  MetricsRegistry registry;
  Gauge* g = registry.RegisterGauge("test_generation", "Snapshot gen.");
  g->Set(4);
  const std::string text = registry.TextExposition();
  EXPECT_NE(text.find("# TYPE test_generation gauge\n"), std::string::npos);
  EXPECT_NE(text.find("test_generation 4\n"), std::string::npos);
}

TEST(ObsRegistryTest, HistogramExpositionIsCumulative) {
  MetricsRegistry registry;
  Histogram* h =
      registry.RegisterHistogram("test_latency_seconds", "Latency.");
  h->Record(1.5e-6);  // bucket 1 (le 2e-06)
  h->Record(1.5e-6);
  h->Record(3.0e-6);  // bucket 2 (le 4e-06)
  const std::string text = registry.TextExposition();
  EXPECT_NE(text.find("# TYPE test_latency_seconds histogram\n"),
            std::string::npos);
  // Cumulative: the le="4e-06" bucket includes the two earlier samples.
  EXPECT_NE(text.find("test_latency_seconds_bucket{le=\"2e-06\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_latency_seconds_bucket{le=\"4e-06\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_latency_seconds_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_latency_seconds_count 3\n"), std::string::npos);
  EXPECT_NE(text.find("test_latency_seconds_sum"), std::string::npos);
}

TEST(ObsRegistryTest, CollectorSamplesAppearUntilUnregistered) {
  MetricsRegistry registry;
  std::atomic<uint64_t> external{9};
  const int id = registry.RegisterCollector(
      [&external](std::vector<MetricSample>* out) {
        MetricSample s;
        s.name = "external_total";
        s.help = "Externally owned.";
        s.value = static_cast<double>(external.load(std::memory_order_seq_cst));
        out->push_back(std::move(s));
      });
  EXPECT_NE(registry.TextExposition().find("external_total 9\n"),
            std::string::npos);
  external.store(11, std::memory_order_seq_cst);
  EXPECT_NE(registry.TextExposition().find("external_total 11\n"),
            std::string::npos);
  registry.UnregisterCollector(id);
  EXPECT_EQ(registry.TextExposition().find("external_total"),
            std::string::npos);
}

TEST(ObsRegistryTest, ConcurrentRecordingDuringExposition) {
  // The record path must stay valid while scrapes run: hammer a
  // counter and a histogram from several threads while another thread
  // repeatedly formats the exposition. TSan-checked.
  MetricsRegistry registry;
  Counter* c = registry.RegisterCounter("race_total", "x");
  Histogram* h = registry.RegisterHistogram("race_seconds", "x");
  std::atomic<bool> stop{false};
  std::thread scraper([&]() {
    while (!stop.load(std::memory_order_seq_cst)) {
      const std::string text = registry.TextExposition();
      EXPECT_NE(text.find("race_total"), std::string::npos);
    }
  });
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&]() {
      for (int i = 0; i < kPerThread; ++i) {
        c->Increment();
        h->Record(1e-5);
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_seq_cst);
  scraper.join();
  EXPECT_EQ(c->Value(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h->TotalCount(), static_cast<uint64_t>(kThreads) * kPerThread);
}

// --- IoStats under concurrency ---------------------------------------

TEST(IoStatsConcurrencyTest, ConcurrentChargesAndReadsAreExact) {
  // Regression for a data race: concurrent refinement paths charge one
  // IoStats while other threads snapshot it (the stats read in
  // QueryService's request path). Counters are relaxed atomics now; totals
  // must come out exact and TSan must stay quiet.
  IoStats stats;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25000;
  std::atomic<bool> stop{false};
  std::thread reader([&]() {
    while (!stop.load(std::memory_order_seq_cst)) {
      const IoStats snapshot = stats;  // copy takes a relaxed snapshot
      EXPECT_LE(snapshot.page_accesses(),
                static_cast<size_t>(kThreads) * kPerThread);
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&]() {
      for (int i = 0; i < kPerThread; ++i) {
        stats.AddPageAccesses(1);
        stats.AddBytesRead(2);
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_seq_cst);
  reader.join();
  EXPECT_EQ(stats.page_accesses(),
            static_cast<size_t>(kThreads) * kPerThread);
  EXPECT_EQ(stats.bytes_read(),
            static_cast<size_t>(kThreads) * kPerThread * 2);
}

}  // namespace
}  // namespace vsim::obs
