// Snapshot-swap online reindex: DbSnapshot publication, generation
// tagging, Rebuilder, and the serving-consistency contract under
// concurrent load (every response carries results from exactly one
// snapshot that was live between its admission and completion).
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "vsim/data/dataset.h"
#include "vsim/service/query_service.h"
#include "vsim/service/rebuilder.h"

namespace vsim {
namespace {

// Four databases over the same parts, extracted with different cover
// counts: distances (and therefore k-NN payloads) differ per variant,
// so a response that mixed generations anywhere in the pipeline --
// engine, validation, result cache -- produces detectably wrong
// neighbors, not just a wrong tag.
class SnapshotSwapTest : public ::testing::Test {
 protected:
  static constexpr int kVariants = 4;
  static constexpr int kK = 4;

  static void SetUpTestSuite() {
    const Dataset ds = MakeCarDataset(24, 7);
    databases_ = new std::vector<CadDatabase>();
    expected_ = new std::vector<std::vector<std::vector<Neighbor>>>();
    for (int v = 0; v < kVariants; ++v) {
      ExtractionOptions opt;
      opt.extract_histograms = false;
      opt.cover_resolution = 10;
      opt.num_covers = 4 + v;
      StatusOr<CadDatabase> db = CadDatabase::FromDataset(ds, opt, 0);
      ASSERT_TRUE(db.ok());
      databases_->push_back(std::move(db).value());
      // Serial ground truth per variant, via a throwaway engine.
      const CadDatabase& built = databases_->back();
      const QueryEngine engine(&built);
      std::vector<std::vector<Neighbor>> per_object(built.size());
      for (size_t id = 0; id < built.size(); ++id) {
        per_object[id] = engine.Knn(QueryStrategy::kVectorSetFilter,
                                    static_cast<int>(id), kK);
      }
      expected_->push_back(std::move(per_object));
    }
  }

  static void TearDownTestSuite() {
    delete expected_;
    expected_ = nullptr;
    delete databases_;
    databases_ = nullptr;
  }

  // A self-contained snapshot of variant `v` tagged with `generation`.
  static std::shared_ptr<const DbSnapshot> Snapshot(int v,
                                                    uint64_t generation) {
    return DbSnapshot::Create(CadDatabase((*databases_)[v]), generation);
  }

  static std::vector<CadDatabase>* databases_;
  // expected_[variant][object_id] = serial kK-NN ground truth.
  static std::vector<std::vector<std::vector<Neighbor>>>* expected_;
};

std::vector<CadDatabase>* SnapshotSwapTest::databases_ = nullptr;
std::vector<std::vector<std::vector<Neighbor>>>* SnapshotSwapTest::expected_ =
    nullptr;

TEST_F(SnapshotSwapTest, SwapRequiresNewerGeneration) {
  QueryService service(Snapshot(0, 5));
  EXPECT_EQ(service.generation(), 5u);
  EXPECT_EQ(service.SwapSnapshot(nullptr).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.SwapSnapshot(Snapshot(1, 5)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.SwapSnapshot(Snapshot(1, 4)).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(service.SwapSnapshot(Snapshot(1, 6)).ok());
  EXPECT_EQ(service.generation(), 6u);
  EXPECT_EQ(service.Stats().snapshot_swaps, 1u);
}

TEST_F(SnapshotSwapTest, ResponsesCarryTheServingGeneration) {
  QueryService service(Snapshot(0, 0));
  ServiceRequest request;
  request.object_id = 1;
  request.options.k = kK;
  StatusOr<ServiceResponse> before = service.Execute(request);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->generation, 0u);
  EXPECT_EQ(before->neighbors, (*expected_)[0][1]);

  ASSERT_TRUE(service.SwapSnapshot(Snapshot(1, 1)).ok());
  StatusOr<ServiceResponse> after = service.Execute(request);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->generation, 1u);
  EXPECT_EQ(after->neighbors, (*expected_)[1][1]);
}

// Regression for the pre-generation-tagging bug: with the cache on,
// rebuilding the database behind the service silently replayed
// stale gen-0 payloads to post-swap requests. The generation in the
// cache key makes the old entry unreachable without any flush.
TEST_F(SnapshotSwapTest, SwapInvalidatesCachedResultsWithoutFlush) {
  QueryServiceOptions options;
  options.num_threads = 1;
  options.cache_bytes = 4 << 20;
  QueryService service(Snapshot(0, 0), options);

  ServiceRequest request;
  request.object_id = 2;
  request.options.k = kK;
  ASSERT_TRUE(service.Execute(request).ok());          // populate gen 0
  StatusOr<ServiceResponse> warm = service.Execute(request);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->cache_hit);
  EXPECT_EQ(warm->neighbors, (*expected_)[0][2]);

  ASSERT_TRUE(service.SwapSnapshot(Snapshot(1, 1)).ok());
  StatusOr<ServiceResponse> fresh = service.Execute(request);
  ASSERT_TRUE(fresh.ok());
  // Must be recomputed against the new snapshot, not a stale replay.
  EXPECT_FALSE(fresh->cache_hit);
  EXPECT_EQ(fresh->generation, 1u);
  EXPECT_EQ(fresh->neighbors, (*expected_)[1][2]);
  ASSERT_NE((*expected_)[0][2], (*expected_)[1][2])
      << "variants too similar for the regression to bite";

  // The new generation memoizes independently.
  StatusOr<ServiceResponse> warm2 = service.Execute(request);
  ASSERT_TRUE(warm2.ok());
  EXPECT_TRUE(warm2->cache_hit);
  EXPECT_EQ(warm2->neighbors, (*expected_)[1][2]);
}

// Acceptance stress: 8 clients hammer the service while the main thread
// publishes >= 3 swaps mid-workload. Zero tolerance for (a) a response
// generation outside its [admission, completion] window and (b) a
// payload that is not that generation's serial ground truth.
TEST_F(SnapshotSwapTest, EightClientStressSurvivesSwapsUnderLoad) {
  constexpr int kClients = 8;
  constexpr int kSwaps = 4;
  QueryServiceOptions options;
  options.num_threads = 4;
  options.cache_bytes = 4 << 20;
  QueryService service(Snapshot(0, 0), options);

  const size_t n = (*databases_)[0].size();
  std::atomic<bool> stop{false};
  std::atomic<int> issued{0};
  std::atomic<int> wrong_window{0};
  std::atomic<int> wrong_payload{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c]() {
      int q = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const int id = static_cast<int>((c * 31 + q * 7) % n);
        ++q;
        issued.fetch_add(1, std::memory_order_seq_cst);
        ServiceRequest request;
        request.object_id = id;
        request.options.k = kK;
        const uint64_t admission_gen = service.generation();
        StatusOr<ServiceResponse> response = service.Execute(request);
        const uint64_t completion_gen = service.generation();
        if (!response.ok()) {
          failures.fetch_add(1, std::memory_order_seq_cst);
          continue;
        }
        if (response->generation < admission_gen ||
            response->generation > completion_gen) {
          wrong_window.fetch_add(1, std::memory_order_seq_cst);
        }
        const int variant = static_cast<int>(response->generation) % kVariants;
        if (response->neighbors != (*expected_)[variant][id]) {
          wrong_payload.fetch_add(1, std::memory_order_seq_cst);
        }
      }
    });
  }

  // Publish kSwaps generations, each while traffic is demonstrably in
  // flight (wait for fresh admissions between swaps).
  for (int g = 1; g <= kSwaps; ++g) {
    const int before = issued.load(std::memory_order_seq_cst);
    while (issued.load(std::memory_order_seq_cst) < before + 50) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(service.SwapSnapshot(
                    Snapshot(g % kVariants, static_cast<uint64_t>(g)))
                    .ok());
  }
  const int after_last_swap = issued.load(std::memory_order_seq_cst);
  while (issued.load(std::memory_order_seq_cst) < after_last_swap + 50) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& client : clients) client.join();

  EXPECT_EQ(wrong_window.load(std::memory_order_seq_cst), 0);
  EXPECT_EQ(wrong_payload.load(std::memory_order_seq_cst), 0);
  EXPECT_EQ(failures.load(std::memory_order_seq_cst), 0);
  EXPECT_EQ(service.Stats().snapshot_swaps, static_cast<uint64_t>(kSwaps));
  EXPECT_EQ(service.generation(), static_cast<uint64_t>(kSwaps));
}

TEST_F(SnapshotSwapTest, RebuilderPublishesMonotonicGenerations) {
  QueryService service(Snapshot(0, 0));
  int builds = 0;
  Rebuilder rebuilder(&service, [&]() -> StatusOr<CadDatabase> {
    ++builds;  // rebuilder thread only; no lock needed
    return CadDatabase((*databases_)[builds % kVariants]);
  });
  ASSERT_TRUE(rebuilder.Trigger().get().ok());
  EXPECT_EQ(service.generation(), 1u);
  ASSERT_TRUE(rebuilder.Trigger().get().ok());
  EXPECT_EQ(service.generation(), 2u);
  const Rebuilder::Stats stats = rebuilder.stats();
  EXPECT_EQ(stats.triggered, 2u);
  EXPECT_EQ(stats.published, 2u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GT(stats.last_build_seconds, 0.0);
}

TEST_F(SnapshotSwapTest, RebuilderFactoryErrorLeavesServiceUntouched) {
  QueryService service(Snapshot(0, 0));
  Rebuilder rebuilder(&service, []() -> StatusOr<CadDatabase> {
    return Status::Internal("synthetic build failure");
  });
  const Status status = rebuilder.Trigger().get();
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_EQ(service.generation(), 0u);
  EXPECT_EQ(service.Stats().snapshot_swaps, 0u);
  EXPECT_EQ(rebuilder.stats().failed, 1u);

  // The service still serves correct gen-0 results afterwards.
  ServiceRequest request;
  request.object_id = 0;
  request.options.k = kK;
  StatusOr<ServiceResponse> response = service.Execute(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->neighbors, (*expected_)[0][0]);
}

TEST_F(SnapshotSwapTest, RebuilderDrainWaitsForAllTriggers) {
  QueryService service(Snapshot(0, 0));
  Rebuilder rebuilder(&service, [&]() -> StatusOr<CadDatabase> {
    return CadDatabase((*databases_)[1]);
  });
  for (int i = 0; i < 3; ++i) rebuilder.Trigger();
  rebuilder.Drain();
  const Rebuilder::Stats stats = rebuilder.stats();
  EXPECT_EQ(stats.published, 3u);
  EXPECT_EQ(service.generation(), 3u);
}

TEST_F(SnapshotSwapTest, DestroyedRebuilderResolvesPendingTriggers) {
  QueryService service(Snapshot(0, 0));
  std::vector<std::future<Status>> futures;
  std::atomic<bool> first_build_started{false};
  {
    Rebuilder rebuilder(&service, [&]() -> StatusOr<CadDatabase> {
      first_build_started.store(true, std::memory_order_seq_cst);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      return CadDatabase((*databases_)[1]);
    });
    for (int i = 0; i < 4; ++i) futures.push_back(rebuilder.Trigger());
    while (!first_build_started.load(std::memory_order_seq_cst)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  // Destruction stops after the in-progress rebuild; every future must
  // still resolve -- either published or kUnavailable, never a hang.
  int published = 0, unavailable = 0;
  for (std::future<Status>& f : futures) {
    const Status status = f.get();
    status.ok() ? ++published : ++unavailable;
    if (!status.ok()) {
      EXPECT_EQ(status.code(), StatusCode::kUnavailable);
    }
  }
  EXPECT_EQ(published + unavailable, 4);
  EXPECT_GE(published, 1);  // the first rebuild was already running
}

// The owning snapshot keeps database + engine alive for exactly as long
// as any reference exists: the service's swap drops one reference, the
// in-flight request holds the other.
TEST_F(SnapshotSwapTest, DisplacedSnapshotOutlivesInFlightRequests) {
  QueryServiceOptions options;
  options.num_threads = 1;
  options.cache_bytes = 0;
  QueryService service(Snapshot(0, 0), options);
  service.Pause();
  ServiceRequest request;
  request.object_id = 3;
  request.options.k = kK;
  // The callback shares the promise, so its state outlives set_value.
  auto done = std::make_shared<std::promise<StatusOr<ServiceResponse>>>();
  std::future<StatusOr<ServiceResponse>> submitted = done->get_future();
  ASSERT_TRUE(service
                  .SubmitWithCallback(
                      request,
                      [done](StatusOr<ServiceResponse> result) {
                        done->set_value(std::move(result));
                      })
                  .ok());
  // Swap while the request is queued: it must execute on one coherent
  // snapshot (the new one -- acquisition happens at execution).
  ASSERT_TRUE(service.SwapSnapshot(Snapshot(1, 1)).ok());
  service.Resume();
  StatusOr<ServiceResponse> response = submitted.get();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->generation, 1u);
  EXPECT_EQ(response->neighbors, (*expected_)[1][3]);
}

}  // namespace
}  // namespace vsim
