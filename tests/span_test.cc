// Span-tracing tests (docs/OBSERVABILITY.md "Tracing"): the
// fixed-capacity SpanArena (including the counted-truncation contract
// -- overflow must never allocate or crash, only count), the SpanRing
// (newest-first, wraparound, slow-ring retention) and its seqlock under
// concurrent writers, the ring as the flight recorder a stats pull
// reads, trace-context minting, the Chrome trace-event export, and the
// SIGPROF sampling profiler. The Span*, FlightRecorderTest and
// Profiler* suites run under TSan via tools/check_tsan.sh.
#include "vsim/obs/span.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "vsim/obs/profiler.h"
#include "vsim/obs/trace_export.h"

namespace vsim::obs {
namespace {

size_t CountOccurrences(const std::string& haystack,
                        const std::string& needle) {
  size_t count = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TraceContext TestContext() {
  TraceContext context;
  context.trace_hi = 0x0123456789abcdefULL;
  context.trace_lo = 0xfedcba9876543210ULL;
  return context;
}

// --- SpanArena -------------------------------------------------------

TEST(SpanArenaTest, StartEndRecordsMonotoneTimestamps) {
  SpanArena arena(TestContext(), 7);
  const int root = arena.Start(SpanName::kRequest);
  ASSERT_GE(root, 0);
  const int child = arena.Start(SpanName::kFilter, arena.span_id(root));
  ASSERT_GE(child, 0);
  arena.End(child);
  arena.End(root);
  EXPECT_EQ(arena.count(), 2u);
  EXPECT_EQ(arena.dropped(), 0u);
  const SpanRecord& r = arena.span(static_cast<size_t>(root));
  const SpanRecord& c = arena.span(static_cast<size_t>(child));
  EXPECT_GT(r.span_id, 0u);
  EXPECT_EQ(r.parent_span_id, 0u);
  EXPECT_EQ(c.parent_span_id, r.span_id);
  EXPECT_LE(r.start_ns, c.start_ns);
  EXPECT_LE(c.end_ns, r.end_ns);
  EXPECT_GE(c.end_ns, c.start_ns);
  EXPECT_EQ(c.name, static_cast<uint8_t>(SpanName::kFilter));
}

TEST(SpanArenaTest, SpanIdsAreUniqueAndNonZero) {
  SpanArena arena(TestContext(), 42);
  std::set<uint64_t> ids;
  for (size_t i = 0; i < kSpanArenaCapacity; ++i) {
    const int index = arena.Add(SpanName::kRefine, 0, 10, 20, i);
    ASSERT_GE(index, 0);
    const uint64_t id = arena.span_id(index);
    EXPECT_NE(id, 0u);
    ids.insert(id);
  }
  EXPECT_EQ(ids.size(), kSpanArenaCapacity);
}

TEST(SpanArenaTest, OverflowCountsDroppedAndNeverGrows) {
  // The truncation contract: a request that outgrows the arena keeps
  // the first kSpanArenaCapacity spans and counts the rest -- no
  // allocation, no reindexing, kInvalidSpan for every overflow Add.
  SpanArena arena(TestContext(), 3);
  for (size_t i = 0; i < kSpanArenaCapacity; ++i) {
    ASSERT_GE(arena.Add(SpanName::kQueue, 0, i, i + 1, 0), 0);
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(arena.Add(SpanName::kQueue, 0, 100, 200, 0),
              SpanArena::kInvalidSpan);
    EXPECT_EQ(arena.Start(SpanName::kFlush), SpanArena::kInvalidSpan);
  }
  EXPECT_EQ(arena.count(), kSpanArenaCapacity);
  EXPECT_EQ(arena.dropped(), 20u);
  // End / SetCounter / span_id on the invalid index are harmless no-ops.
  arena.End(SpanArena::kInvalidSpan);
  arena.SetCounter(SpanArena::kInvalidSpan, 99);
  EXPECT_EQ(arena.span_id(SpanArena::kInvalidSpan), 0u);

  QueryTrace summary{};
  summary.trace_id = 17;
  SpanTreeRecord record;
  RenderSpanTree(arena, summary, &record);
  EXPECT_EQ(record.span_count, kSpanArenaCapacity);
  EXPECT_EQ(record.spans_dropped, 20u);
  EXPECT_EQ(record.summary.trace_id, 17u);
  EXPECT_EQ(record.summary.trace_hi, TestContext().trace_hi);
}

TEST(SpanArenaTest, SetCounterUpdatesOpenSpan) {
  SpanArena arena(TestContext(), 1);
  const int index = arena.Start(SpanName::kRefine);
  arena.SetCounter(index, 123);
  arena.End(index);
  EXPECT_EQ(arena.span(static_cast<size_t>(index)).counter, 123u);
}

// --- MintTraceContext ------------------------------------------------

TEST(SpanMintTest, MintedContextsAreValidAndDistinct) {
  std::set<std::pair<uint64_t, uint64_t>> seen;
  for (int i = 0; i < 1000; ++i) {
    const TraceContext context = MintTraceContext();
    EXPECT_TRUE(context.valid());
    EXPECT_EQ(context.parent_span_id, 0u);
    seen.insert({context.trace_hi, context.trace_lo});
  }
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(SpanMintTest, MintIsThreadSafe) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::vector<TraceContext>> minted(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&minted, t] {
      minted[static_cast<size_t>(t)].reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) {
        minted[static_cast<size_t>(t)].push_back(MintTraceContext());
      }
    });
  }
  for (auto& thread : threads) thread.join();
  std::set<std::pair<uint64_t, uint64_t>> seen;
  for (const auto& batch : minted) {
    for (const TraceContext& context : batch) {
      EXPECT_TRUE(context.valid());
      seen.insert({context.trace_hi, context.trace_lo});
    }
  }
  EXPECT_EQ(seen.size(),
            static_cast<size_t>(kThreads) * kPerThread);
}

// --- SpanRing --------------------------------------------------------

// A service record whose summary fields and spans are all derived from
// `tag`, so a torn read (a mix of two writes) is detectable in either.
SpanTreeRecord MakeTree(uint64_t tag, double total_seconds = 0.001) {
  QueryTrace summary{};
  summary.trace_id = tag;
  summary.generation = tag * 3 + 1;
  summary.k = static_cast<int32_t>(tag % 97);
  summary.total_seconds = total_seconds;
  summary.filter_hits = tag + 1000;
  summary.candidates_refined = tag + 500;
  summary.hungarian_invocations = tag + 500;
  summary.page_accesses = tag * 7;
  summary.bytes_read = tag * 11;
  SpanArena arena(TestContext(), tag);
  const int root = arena.Add(SpanName::kRequest, 0, tag, tag + 100, tag);
  arena.Add(SpanName::kFilter, arena.span_id(root), tag + 10, tag + 50, 3);
  SpanTreeRecord record;
  RenderSpanTree(arena, summary, &record);
  return record;
}

void ExpectDerived(const SpanTreeRecord& tree) {
  const uint64_t tag = tree.summary.trace_id;
  EXPECT_EQ(tree.summary.generation, tag * 3 + 1);
  EXPECT_EQ(tree.summary.k, static_cast<int32_t>(tag % 97));
  EXPECT_EQ(tree.summary.filter_hits, tag + 1000);
  EXPECT_EQ(tree.summary.candidates_refined, tag + 500);
  EXPECT_EQ(tree.summary.hungarian_invocations, tag + 500);
  EXPECT_EQ(tree.summary.page_accesses, tag * 7);
  EXPECT_EQ(tree.summary.bytes_read, tag * 11);
  EXPECT_EQ(tree.summary.trace_hi, TestContext().trace_hi);
  EXPECT_EQ(tree.summary.trace_lo, TestContext().trace_lo);
  ASSERT_EQ(tree.span_count, 2u);
  EXPECT_EQ(tree.spans[0].start_ns, tag);
  EXPECT_EQ(tree.spans[0].end_ns, tag + 100);
  EXPECT_EQ(tree.spans[0].counter, tag);
  EXPECT_EQ(tree.spans[1].start_ns, tag + 10);
  EXPECT_EQ(tree.spans[1].end_ns, tag + 50);
  EXPECT_EQ(tree.spans[1].parent_span_id, tree.spans[0].span_id);
}

TEST(SpanRingTest, SnapshotReturnsNewestFirst) {
  SpanRing ring(1.0, 8, 4);
  for (uint64_t i = 1; i <= 5; ++i) ring.Record(MakeTree(i));
  const std::vector<SpanTreeRecord> trees = ring.Snapshot(16);
  ASSERT_EQ(trees.size(), 5u);
  for (size_t i = 0; i < trees.size(); ++i) {
    EXPECT_EQ(trees[i].summary.trace_id, 5 - i);
    ExpectDerived(trees[i]);
  }
  ASSERT_EQ(ring.Snapshot(2).size(), 2u);
  EXPECT_EQ(ring.Snapshot(2)[0].summary.trace_id, 5u);
  EXPECT_EQ(ring.recorded(), 5u);
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(SpanRingTest, WraparoundKeepsMostRecentCapacity) {
  SpanRing ring(1.0, 4, 4);
  for (uint64_t i = 1; i <= 10; ++i) ring.Record(MakeTree(i));
  const std::vector<SpanTreeRecord> trees = ring.Snapshot(16);
  ASSERT_EQ(trees.size(), 4u);
  for (size_t i = 0; i < trees.size(); ++i) {
    EXPECT_EQ(trees[i].summary.trace_id, 10 - i);
  }
  EXPECT_EQ(ring.recorded(), 10u);
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(SpanRingTest, SlowRingRetainsSlowTracesPastFastBursts) {
  // One slow request, then a burst of fast ones large enough to evict
  // it from the recent ring: the slow ring must still hold it.
  SpanRing ring(0.100, 8, 4);
  ring.Record(MakeTree(1, 0.250));
  for (uint64_t i = 10; i < 30; ++i) ring.Record(MakeTree(i, 0.001));
  for (const SpanTreeRecord& tree : ring.Snapshot(64)) {
    EXPECT_NE(tree.summary.trace_id, 1u);
  }
  const std::vector<SpanTreeRecord> slow =
      ring.Snapshot(64, /*slow_only=*/true);
  ASSERT_EQ(slow.size(), 1u);
  EXPECT_EQ(slow[0].summary.trace_id, 1u);
  EXPECT_EQ(slow[0].summary.total_seconds, 0.250);
  ExpectDerived(slow[0]);  // the slow record keeps its spans too
}

TEST(SpanRingTest, ThresholdBoundaryIsInclusive) {
  SpanRing ring(0.100, 8, 4);
  ring.Record(MakeTree(1, 0.100));   // exactly at threshold
  ring.Record(MakeTree(2, 0.0999));  // just under
  const std::vector<SpanTreeRecord> slow = ring.Snapshot(64, true);
  ASSERT_EQ(slow.size(), 1u);
  EXPECT_EQ(slow[0].summary.trace_id, 1u);
}

TEST(SpanRingTest, OnlyServiceRecordsEnterTheSlowRing) {
  // A net-layer tree summarizes nothing (trace_id 0): even with a zero
  // threshold it stays out of the slow ring, which keeps requests.
  SpanRing ring(0.0, 8, 4);
  SpanArena net(TestContext(), 99);
  net.Add(SpanName::kFlush, 0, 10, 20);
  SpanTreeRecord net_tree;
  RenderSpanTree(net, QueryTrace{}, &net_tree);
  ring.Record(net_tree);
  ring.Record(MakeTree(5));
  const std::vector<SpanTreeRecord> slow = ring.Snapshot(8, true);
  ASSERT_EQ(slow.size(), 1u);
  EXPECT_EQ(slow[0].summary.trace_id, 5u);
  const std::vector<SpanTreeRecord> recent = ring.Snapshot(8);
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_EQ(recent[1].summary.trace_id, 0u);
  EXPECT_EQ(recent[1].summary.trace_hi, TestContext().trace_hi);
  EXPECT_EQ(ring.recorded(), 2u);
}

TEST(SpanRingTest, ConcurrentRecordAndSnapshotNeverTear) {
  // The seqlock contract: a snapshot taken while writers hammer the
  // ring yields only fully consistent records (summary and spans
  // derived from one tag), never a torn mix of two writes. Runs under
  // TSan via tools/check_tsan.sh.
  SpanRing ring(1.0, 16, 4);
  std::atomic<bool> stop{false};
  constexpr int kWriters = 4;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&ring, &stop, w] {
      uint64_t i = 1;
      while (!stop.load(std::memory_order_relaxed)) {
        ring.Record(MakeTree(static_cast<uint64_t>(w + 1) * 1000000 + i));
        ++i;
      }
    });
  }
  // Wait until the writers are actually producing (an empty-ring
  // snapshot loop can outrun thread startup entirely).
  while (ring.recorded() < 64) std::this_thread::yield();
  for (int round = 0; round < 200; ++round) {
    for (const SpanTreeRecord& tree : ring.Snapshot(16)) ExpectDerived(tree);
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& writer : writers) writer.join();
  EXPECT_GT(ring.recorded(), 0u);
}

TEST(SpanRingTest, WraparoundAndSlowRetentionUnderConcurrentWriters) {
  // Concurrent writers mixing fast and slow records: after the dust
  // settles the recent ring holds exactly its capacity of coherent
  // records (wraparound), and the slow ring retains only slow ones --
  // fast bursts from other threads must never evict or corrupt them.
  // Runs under TSan via tools/check_tsan.sh.
  SpanRing ring(0.100, 16, 8);
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 4000;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&ring, t]() {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        const uint64_t id = static_cast<uint64_t>(t) * kPerThread + i + 1;
        // Every 16th record is slow (0.25s); the rest are fast (1ms).
        ring.Record(MakeTree(id, (id % 16 == 0) ? 0.250 : 0.001));
      }
    });
  }
  for (auto& w : writers) w.join();
  EXPECT_EQ(ring.recorded(), kThreads * kPerThread);

  const std::vector<SpanTreeRecord> recent = ring.Snapshot(64);
  EXPECT_EQ(recent.size(), 16u);  // wraparound: capacity, no more
  for (const SpanTreeRecord& tree : recent) ExpectDerived(tree);

  const std::vector<SpanTreeRecord> slow = ring.Snapshot(64, true);
  EXPECT_EQ(slow.size(), 8u);  // slow ring full after 1000 slow records
  for (const SpanTreeRecord& tree : slow) {
    ExpectDerived(tree);
    EXPECT_EQ(tree.summary.trace_id % 16, 0u);  // only slow records here
    EXPECT_EQ(tree.summary.total_seconds, 0.250);
  }
}

// --- The ring as flight recorder -------------------------------------
//
// The summaries of the ring's service records are the flight recorder
// that `vsim stats` reads (PROTOCOL.md §7 `traces`). These cases hold
// the ring to it the way a server fills it: a remote request writes its
// service record and then its net-layer tree, and a stats pull reads
// either ring while requests keep arriving.

// The net-layer tree the reactor records after a remote request: same
// trace-id pair, no summary (trace_id 0).
SpanTreeRecord MakeNetTree(uint64_t tag) {
  SpanArena arena(TestContext(), tag);
  arena.Add(SpanName::kFlush, 0, tag + 200, tag + 300);
  SpanTreeRecord record;
  RenderSpanTree(arena, QueryTrace{}, &record);
  return record;
}

TEST(FlightRecorderTest, SnapshotReturnsNewestFirst) {
  SpanRing ring(1.0, 16, 4);
  for (uint64_t i = 1; i <= 5; ++i) {
    ring.Record(MakeTree(i));
    ring.Record(MakeNetTree(i));
  }
  // Newest first, each request's net tree ahead of its service record.
  const std::vector<SpanTreeRecord> records = ring.Snapshot(16);
  ASSERT_EQ(records.size(), 10u);
  for (size_t i = 0; i < records.size(); i += 2) {
    EXPECT_EQ(records[i].summary.trace_id, 0u);
    EXPECT_EQ(records[i].summary.trace_hi, TestContext().trace_hi);
    EXPECT_EQ(records[i + 1].summary.trace_id, 5 - i / 2);
    ExpectDerived(records[i + 1]);
  }
  ASSERT_EQ(ring.Snapshot(2).size(), 2u);
  EXPECT_EQ(ring.Snapshot(2)[1].summary.trace_id, 5u);
  EXPECT_EQ(ring.recorded(), 10u);
}

TEST(FlightRecorderTest, WraparoundKeepsTheMostRecentCapacity) {
  // Every request is slow, so both rings wrap: each keeps its own
  // capacity of the newest records.
  SpanRing ring(0.100, 8, 4);
  for (uint64_t i = 1; i <= 20; ++i) ring.Record(MakeTree(i, 0.250));
  const std::vector<SpanTreeRecord> recent = ring.Snapshot(64);
  ASSERT_EQ(recent.size(), 8u);
  for (size_t i = 0; i < recent.size(); ++i) {
    EXPECT_EQ(recent[i].summary.trace_id, 20 - i);
  }
  const std::vector<SpanTreeRecord> slow = ring.Snapshot(64, true);
  ASSERT_EQ(slow.size(), 4u);
  for (size_t i = 0; i < slow.size(); ++i) {
    EXPECT_EQ(slow[i].summary.trace_id, 20 - i);
    ExpectDerived(slow[i]);
  }
  EXPECT_EQ(ring.recorded(), 20u);
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(FlightRecorderTest, ConcurrentRecordAndSnapshotNeverTear) {
  // A reader pulling both rings, as `vsim stats` and `vsim stats
  // --slow` do, while bounded writers fill them: every record read is
  // whole, and the ring counts every write. Runs under TSan via
  // tools/check_tsan.sh.
  SpanRing ring(0.100, 64, 16);
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 5000;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> observed{0};
  std::thread reader([&]() {
    while (!stop.load(std::memory_order_seq_cst)) {
      for (bool slow_only : {false, true}) {
        for (const SpanTreeRecord& tree : ring.Snapshot(64, slow_only)) {
          ExpectDerived(tree);  // any mix of two writes would fail here
          observed.fetch_add(1, std::memory_order_seq_cst);
        }
      }
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&ring, t]() {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        const uint64_t id = static_cast<uint64_t>(t) * kPerThread + i + 1;
        ring.Record(MakeTree(id, (id % 4 == 0) ? 0.250 : 0.001));
      }
    });
  }
  for (auto& w : writers) w.join();
  // Writers can finish before the reader thread is even scheduled;
  // keep the reader alive until it has seen at least one coherent
  // record (the rings are full now, so one more pass suffices).
  while (observed.load(std::memory_order_seq_cst) == 0) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_seq_cst);
  reader.join();
  EXPECT_EQ(ring.recorded(), kThreads * kPerThread);
  // The rings are lossy by design: a writer whose claimed slot is still
  // mid-write drops instead of spinning. That needs another writer to
  // stall for a full ring revolution and wrap onto the same slot, so
  // drops are rare -- but nonzero is legal under scheduling jitter
  // (TSan routinely deschedules a writer long enough).
  EXPECT_LT(ring.dropped(), kThreads * kPerThread / 10);
  const std::vector<SpanTreeRecord> recent = ring.Snapshot(64);
  EXPECT_EQ(recent.size(), 64u);
  for (const SpanTreeRecord& tree : recent) ExpectDerived(tree);
  const std::vector<SpanTreeRecord> slow = ring.Snapshot(64, true);
  EXPECT_EQ(slow.size(), 16u);
  for (const SpanTreeRecord& tree : slow) {
    ExpectDerived(tree);
    EXPECT_EQ(tree.summary.trace_id % 4, 0u);
  }
}

// --- Chrome trace export ---------------------------------------------

TEST(TraceExportTest, RendersCompleteEventsGroupedByTraceId) {
  std::vector<SpanTreeRecord> trees;
  trees.push_back(MakeTree(1000));
  trees.push_back(MakeTree(2000));
  trees[1].summary.trace_hi = 0x1111;  // second tree: a different trace
  trees[1].summary.trace_lo = 0x2222;
  const std::string json = RenderChromeTrace(trees);
  // Structural sanity: one JSON object with a traceEvents array, one
  // thread_name metadata event per distinct trace id, one X event per
  // span, µs timestamps.
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '\n');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"M\""), 2u);
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"X\""), 4u);
  EXPECT_NE(json.find("\"name\":\"request\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"filter\""), std::string::npos);
  EXPECT_NE(json.find("0123456789abcdeffedcba9876543210"),
            std::string::npos);
}

TEST(TraceExportTest, EmptyInputIsStillValidJson) {
  const std::string json = RenderChromeTrace({});
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_EQ(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST(TraceExportTest, ClampsCorruptSpanCountAndReversedTimestamps) {
  SpanTreeRecord tree{};
  tree.summary.trace_hi = 1;
  tree.summary.trace_lo = 2;
  tree.span_count = kSpanArenaCapacity + 100;  // hostile count
  tree.spans[0].span_id = 5;
  tree.spans[0].start_ns = 100;
  tree.spans[0].end_ns = 50;  // end before start
  tree.spans[0].name = 200;   // out-of-range name
  const std::string json = RenderChromeTrace({tree});
  // Must not crash or emit negative durations.
  EXPECT_EQ(json.find("-"), std::string::npos);
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"X\""),
            static_cast<size_t>(kSpanArenaCapacity));
}

// --- Profiler --------------------------------------------------------

TEST(ProfilerTest, ArmSampleCollectDisarm) {
  Profiler& profiler = Profiler::Instance();
  ASSERT_FALSE(profiler.armed());
  ASSERT_TRUE(profiler.Arm(1000));
  EXPECT_TRUE(profiler.armed());
  // ITIMER_PROF counts CPU time: spin long enough for several ticks.
  volatile double sink = 0;
  const uint64_t start_ns = MonotonicNowNs();
  while (MonotonicNowNs() - start_ns < 300000000ULL) {
    for (int i = 0; i < 1000; ++i) sink = sink + static_cast<double>(i) * 1e-9;
  }
  profiler.Disarm();
  EXPECT_FALSE(profiler.armed());
  EXPECT_GT(profiler.samples(), 0u);
  const std::string collapsed = profiler.CollapsedStacks();
  EXPECT_FALSE(collapsed.empty());
  // Collapsed-stack shape: "frame;frame;... count\n" lines.
  EXPECT_NE(collapsed.find(' '), std::string::npos);
  EXPECT_EQ(collapsed.back(), '\n');
  (void)sink;
}

TEST(ProfilerTest, RearmResetsSamples) {
  Profiler& profiler = Profiler::Instance();
  ASSERT_TRUE(profiler.Arm(100));
  profiler.Disarm();
  ASSERT_TRUE(profiler.Arm(100));
  EXPECT_EQ(profiler.samples(), 0u);
  profiler.Disarm();
}

TEST(ProfilerTest, ArmClampsRate) {
  Profiler& profiler = Profiler::Instance();
  ASSERT_TRUE(profiler.Arm(1000000));  // clamped to 1000 Hz
  profiler.Disarm();
  ASSERT_TRUE(profiler.Arm(0));  // clamped to 1 Hz
  profiler.Disarm();
}

}  // namespace
}  // namespace vsim::obs
