// End-to-end disk-backed serving: a QueryService over a
// DbSnapshot::CreateDiskBacked snapshot answers concurrent clients
// through the sharded buffer pool, matches the RAM-resident engine
// exactly, and exposes non-zero vsim_cache_pool_* series. This is the
// scenario the old architecture explicitly forbade (single-thread
// buffer pool => no concurrent disk-backed serving); the suite runs
// under TSan in CI (tools/check_tsan.sh).
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "vsim/data/dataset.h"
#include "vsim/service/db_snapshot.h"
#include "vsim/service/query_service.h"

namespace vsim {
namespace {

// A store file private to this process, removed when the test ends:
// ctest runs a test's own entry and disk_serving_repeat concurrently,
// and they must not rewrite each other's store files.
class TempStore {
 public:
  explicit TempStore(const std::string& name)
      : path_(::testing::TempDir() + "/" + std::to_string(getpid()) + "_" +
              name) {}
  ~TempStore() { std::remove(path_.c_str()); }
  TempStore(const TempStore&) = delete;
  TempStore& operator=(const TempStore&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

StatusOr<CadDatabase> BuildDb(int objects = 30) {
  const Dataset ds = MakeCarDataset(objects, 99);
  ExtractionOptions opt;
  opt.extract_histograms = false;
  opt.cover_resolution = 10;
  opt.num_covers = 5;
  return CadDatabase::FromDataset(ds, opt, 0);
}

TEST(DiskServingTest, DiskBackedSnapshotMatchesRamResidentEngine) {
  const TempStore store("ds_match.vsstore");
  StatusOr<CadDatabase> ram_db = BuildDb();
  ASSERT_TRUE(ram_db.ok());
  const QueryEngine ram_engine(&*ram_db);

  StatusOr<CadDatabase> disk_db = BuildDb();
  ASSERT_TRUE(disk_db.ok());
  // Tiny pool (8 frames) so refinement actually churns pages. This test
  // drives the engine's stored-id overloads directly (no service in
  // front to hydrate queries from the store), so it opts out of the
  // default RAM demotion.
  StatusOr<std::shared_ptr<const DbSnapshot>> snap =
      DbSnapshot::CreateDiskBacked(std::move(*disk_db),
                                   store.path(), 1,
                                   IoCostParams{}, 8,
                                   /*keep_ram_sets=*/true);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  ASSERT_NE((*snap)->store(), nullptr);
  EXPECT_GT((*snap)->db().VectorSetResidentBytes(), 0u);

  const int n = static_cast<int>(ram_db->size());
  for (int id = 0; id < n; ++id) {
    const auto expected = ram_engine.Knn(QueryStrategy::kVectorSetFilter, id, 5);
    const auto got = (*snap)->engine().Knn(QueryStrategy::kVectorSetFilter, id, 5);
    EXPECT_EQ(got, expected) << "id=" << id;
  }
  // The refinement path really went through the pool.
  EXPECT_GT((*snap)->store()->pool().Stats().hits() +
                (*snap)->store()->pool().Stats().misses,
            0u);
}

// A stored id on a demoted disk-backed snapshot needs its vector set
// from the store before it can be hashed into a cache key, so the
// submission does not look it up: even with its answer cached, the
// request queues for a worker, and the submitting thread reads no page.
TEST(DiskServingTest, HitPathLeavesStoredIdQueriesToTheWorkers) {
  const TempStore store("ds_hit_path.vsstore");
  StatusOr<CadDatabase> db = BuildDb();
  ASSERT_TRUE(db.ok());
  StatusOr<std::shared_ptr<const DbSnapshot>> snap =
      DbSnapshot::CreateDiskBacked(std::move(*db), store.path(), 1,
                                   IoCostParams{}, 8);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  QueryServiceOptions options;
  options.num_threads = 1;
  options.cache_bytes = 4 << 20;
  QueryService service(*snap, options);
  ServiceRequest request;
  request.object_id = 3;
  request.options.k = 4;
  ASSERT_TRUE(service.Execute(request).ok());  // the answer is now cached
  service.Pause();

  const cache::PoolStatsSnapshot before = (*snap)->store()->pool().Stats();
  auto done = std::make_shared<std::promise<StatusOr<ServiceResponse>>>();
  std::future<StatusOr<ServiceResponse>> result = done->get_future();
  ASSERT_TRUE(service
                  .SubmitWithCallback(request,
                                      [done](StatusOr<ServiceResponse> r) {
                                        done->set_value(std::move(r));
                                      })
                  .ok());
  EXPECT_EQ(result.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);
  const cache::PoolStatsSnapshot after = (*snap)->store()->pool().Stats();
  EXPECT_EQ(after.hits(), before.hits());
  EXPECT_EQ(after.misses, before.misses);

  service.Resume();
  const StatusOr<ServiceResponse> response = result.get();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->cache_hit);  // the worker's lookup found it
}

TEST(DiskServingTest, ConcurrentClientsOverDiskBackedSnapshot) {
  const TempStore store("ds_serve.vsstore");
  // 120 objects so the store spans many more pages than the pool: a
  // 2-frame pool over a multi-page store means every client's
  // refinement churns pages, and the scrape below must show both hits
  // and misses.
  StatusOr<CadDatabase> db = BuildDb(120);
  ASSERT_TRUE(db.ok());
  StatusOr<std::shared_ptr<const DbSnapshot>> snap =
      DbSnapshot::CreateDiskBacked(std::move(*db),
                                   store.path(), 1,
                                   IoCostParams{}, 2);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();

  // The default disk-backed build demotes the RAM vector-set copies:
  // the store is now the only full copy of each set.
  const int n = static_cast<int>((*snap)->db().size());
  for (int id = 0; id < n; ++id) {
    EXPECT_TRUE((*snap)->db().object(id).vector_set.empty()) << "id=" << id;
  }
  EXPECT_EQ((*snap)->db().VectorSetResidentBytes(), 0u);

  // Serial ground truth off an identically-built RAM-resident engine
  // (BuildDb is deterministic); the service must hydrate stored-id
  // queries from the store and still answer exactly, concurrently.
  StatusOr<CadDatabase> ram_db = BuildDb(120);
  ASSERT_TRUE(ram_db.ok());
  const QueryEngine ram_engine(&*ram_db);
  const int k = 5;
  std::vector<std::vector<Neighbor>> expected(n);
  for (int id = 0; id < n; ++id) {
    expected[id] = ram_engine.Knn(QueryStrategy::kVectorSetFilter, id, k);
  }

  QueryServiceOptions options;
  options.num_threads = 4;
  options.cache_bytes = 0;  // every request must hit the disk path
  QueryService service(*snap, options);

  constexpr int kClients = 8;
  constexpr int kPerClient = 40;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int q = 0; q < kPerClient; ++q) {
        const int id = (c * 13 + q * 5) % n;
        ServiceRequest request;
        request.object_id = id;
        request.kind = QueryKind::kKnn;
        request.options.k = k;
        StatusOr<ServiceResponse> response = service.Execute(request);
        if (!response.ok() || response->neighbors != expected[id]) {
          mismatches.fetch_add(1, std::memory_order_seq_cst);
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  EXPECT_EQ(mismatches.load(std::memory_order_seq_cst), 0);

  // The service's metrics scrape must now carry the pool's series with
  // real traffic in them: hits in at least one tier, and misses (the
  // 8-frame pool cannot hold the whole store).
  const cache::PoolStatsSnapshot stats = (*snap)->store()->pool().Stats();
  EXPECT_GT(stats.hits(), 0u);
  EXPECT_GT(stats.misses, 0u);
  const std::string text = service.metrics().TextExposition();
  EXPECT_NE(text.find("vsim_cache_pool_hits_total"), std::string::npos);
  EXPECT_NE(text.find("vsim_cache_pool_misses_total"), std::string::npos);
  EXPECT_NE(text.find("vsim_cache_pool_resident_pages"), std::string::npos);
  // The demotion gauge reads zero: no duplicated RAM copies remain.
  EXPECT_NE(text.find("vsim_cache_pool_resident_bytes 0\n"),
            std::string::npos);
  // At least one tier's hit counter is non-zero in the exposition.
  const bool nonzero_hot =
      text.find("vsim_cache_pool_hits_total{tier=\"hot\"} 0\n") ==
      std::string::npos;
  const bool nonzero_cold =
      text.find("vsim_cache_pool_hits_total{tier=\"cold\"} 0\n") ==
      std::string::npos;
  EXPECT_TRUE(nonzero_hot || nonzero_cold);
}

TEST(DiskServingTest, KeepRamSetsRetainsCopiesAndReportsGaugeNonZero) {
  const TempStore store("ds_keep.vsstore");
  // Opting out of demotion keeps the duplicated copies and the gauge
  // reports their true footprint, so capacity dashboards can see the
  // doubled residency.
  StatusOr<CadDatabase> db = BuildDb();
  ASSERT_TRUE(db.ok());
  StatusOr<std::shared_ptr<const DbSnapshot>> snap =
      DbSnapshot::CreateDiskBacked(std::move(*db),
                                   store.path(), 1,
                                   IoCostParams{}, 8,
                                   /*keep_ram_sets=*/true);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  const size_t resident = (*snap)->db().VectorSetResidentBytes();
  EXPECT_GT(resident, 0u);
  QueryServiceOptions options;
  options.num_threads = 1;
  QueryService service(*snap, options);
  ServiceRequest request;
  request.object_id = 0;
  request.options.k = 3;
  ASSERT_TRUE(service.Execute(request).ok());
  const std::string text = service.metrics().TextExposition();
  EXPECT_NE(text.find("vsim_cache_pool_resident_bytes " +
                      std::to_string(resident) + "\n"),
            std::string::npos);
}

TEST(DiskServingTest, DemotedSnapshotAnswersStoredIdQueriesExactly) {
  const TempStore store("ds_demote.vsstore");
  // Demotion must be invisible to service clients: every stored-id
  // query over the demoted snapshot (the query hydrated back from the
  // store) matches the RAM-resident reference.
  StatusOr<CadDatabase> ram_db = BuildDb();
  ASSERT_TRUE(ram_db.ok());
  const QueryEngine ram_engine(&*ram_db);

  StatusOr<CadDatabase> disk_db = BuildDb();
  ASSERT_TRUE(disk_db.ok());
  StatusOr<std::shared_ptr<const DbSnapshot>> snap =
      DbSnapshot::CreateDiskBacked(std::move(*disk_db),
                                   store.path(), 1,
                                   IoCostParams{}, 8);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  QueryServiceOptions options;
  options.num_threads = 1;
  options.cache_bytes = 0;
  QueryService service(*snap, options);

  const int n = static_cast<int>(ram_db->size());
  const int k = 5;
  for (int id = 0; id < n; ++id) {
    ServiceRequest request;
    request.object_id = id;
    request.strategy = QueryStrategy::kVectorSetFilter;
    request.options.k = k;
    StatusOr<ServiceResponse> response = service.Execute(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    const std::vector<Neighbor> want =
        ram_engine.Knn(QueryStrategy::kVectorSetFilter, id, k);
    EXPECT_EQ(response->neighbors, want) << "id=" << id;
  }
}

TEST(DiskServingTest, DemotedSnapshotEngineStoredIdQueriesMatchRam) {
  const TempStore store("ds_engine_ids.vsstore");
  // The engine's own stored-id overloads, bypassing the service, on a
  // demoted snapshot: the query's set is gone from RAM and must be read
  // from the store, or every candidate ranks by its unmatched-vector
  // penalty alone. KnnJoin queries by id too.
  ExtractionOptions opt;
  opt.extract_histograms = false;
  StatusOr<CadDatabase> db =
      CadDatabase::FromDataset(MakeAircraftDataset(300, 7), opt, 2);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const std::shared_ptr<const DbSnapshot> ram = DbSnapshot::Create(*db, 1);
  StatusOr<std::shared_ptr<const DbSnapshot>> disk =
      DbSnapshot::CreateDiskBacked(std::move(*db),
                                   store.path(), 1,
                                   IoCostParams{}, 16);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  ASSERT_TRUE((*disk)->db().object(0).vector_set.empty());
  const int n = static_cast<int>(ram->db().size());
  for (int id = 0; id < n; ++id) {
    QueryCost cost;
    EXPECT_EQ((*disk)->engine().Knn(QueryStrategy::kVectorSetFilter, id, 10,
                                    &cost),
              ram->engine().Knn(QueryStrategy::kVectorSetFilter, id, 10))
        << "id=" << id;
    EXPECT_TRUE(cost.status.ok()) << cost.status.ToString();
  }
  EXPECT_EQ((*disk)->engine().KnnJoin(QueryStrategy::kVectorSetFilter, 3),
            ram->engine().KnnJoin(QueryStrategy::kVectorSetFilter, 3));
}

TEST(DiskServingTest, FailedStoreReadFailsTheRequestWithoutAborting) {
  // The store file is truncated under a pool smaller than the store, so
  // refinement's page reads fail mid-query. The request must fail with
  // the read's status: no abort, no partial answer, nothing cached.
  StatusOr<CadDatabase> db = BuildDb(120);
  ASSERT_TRUE(db.ok());
  const int n = static_cast<int>(db->size());
  const TempStore store("ds_truncated.vsstore");
  const std::string& path = store.path();
  // RAM sets kept, so the query itself needs no store read: the failure
  // happens inside the engine's refinement, not in query hydration.
  StatusOr<std::shared_ptr<const DbSnapshot>> snap =
      DbSnapshot::CreateDiskBacked(std::move(*db), path, 1, IoCostParams{}, 2,
                                   /*keep_ram_sets=*/true);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  ASSERT_EQ(::truncate(path.c_str(), 0), 0);

  QueryServiceOptions options;
  options.num_threads = 1;
  QueryService service(*snap, options);  // result cache on
  ServiceRequest request;
  request.object_id = 0;
  request.strategy = QueryStrategy::kVectorSetFilter;
  request.options.k = n;  // refines every object: most pages must be read
  for (int attempt = 0; attempt < 2; ++attempt) {
    StatusOr<ServiceResponse> response = service.Execute(request);
    ASSERT_FALSE(response.ok()) << "attempt " << attempt;
    EXPECT_EQ(response.status().code(), StatusCode::kIOError)
        << response.status().ToString();
  }
  const obs::QueryTrace trace = service.span_ring().Snapshot(1).at(0).summary;
  EXPECT_EQ(trace.status_code, static_cast<uint8_t>(StatusCode::kIOError));
}

TEST(DiskServingTest, RamResidentSnapshotExposesNoPoolSeries) {
  StatusOr<CadDatabase> db = BuildDb();
  ASSERT_TRUE(db.ok());
  std::shared_ptr<const DbSnapshot> snap = DbSnapshot::Create(std::move(*db), 1);
  ASSERT_EQ(snap->store(), nullptr);
  QueryServiceOptions options;
  options.num_threads = 1;
  QueryService service(snap, options);
  ServiceRequest request;
  request.object_id = 0;
  request.options.k = 3;
  ASSERT_TRUE(service.Execute(request).ok());
  const std::string text = service.metrics().TextExposition();
  EXPECT_EQ(text.find("vsim_cache_pool_"), std::string::npos);
}

}  // namespace
}  // namespace vsim
