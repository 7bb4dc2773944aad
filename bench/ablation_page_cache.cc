// Ablation G: the page-cache effect the paper's simulation ignores.
// The paper (Section 5.4) concedes that its one-page-per-candidate I/O
// simulation "does not take the idea of page caches into account". We
// store all vector sets in a real paged file behind the sharded CLOCK
// buffer pool and repeat the Table-2 filter workload with growing pool
// sizes: page accesses are charged only on actual misses. Two layouts
// of the same records are compared on the per-object index
// (SetGrouping::kNone): id order (the paper's unclustered object file;
// ids carry no spatial meaning) and the centroid X-tree's leaf order,
// in which one query's candidates share pages. A third row refines one
// entry per distinct vector set over the layout DbSnapshot::
// CreateDiskBacked writes: the sets' first records in leaf order, then
// the other members' records.
#include <cstdio>
#include <numeric>
#include <string>

#include "bench/bench_util.h"
#include "vsim/common/rng.h"
#include "vsim/core/query_engine.h"
#include "vsim/storage/vector_set_store.h"

using namespace vsim;

int main() {
  const bench::BenchConfig cfg = bench::Config();
  ExtractionOptions opt;
  opt.extract_histograms = false;
  const Dataset ds = bench::AircraftDataset(cfg);
  const CadDatabase db = bench::BuildDatabase(ds, opt);
  QueryEngine engine(&db, {}, SetGrouping::kNone);
  QueryEngine grouped(&db);

  const std::string store_path = "/tmp/vsim_ablation_store.vspg";
  const size_t page_size = 4096;

  Rng rng(77);
  std::vector<int> queries;
  for (int q = 0; q < 100; ++q) {
    queries.push_back(static_cast<int>(rng.NextBounded(db.size())));
  }

  std::printf("Ablation G: buffer-pool effect on the filter step's random "
              "I/O\n(aircraft-like, %zu objects, 100 10-NN queries, "
              "4 KiB pages)\n\n",
              db.size());

  // Baseline: the paper's flat simulation (no cache).
  QueryCost flat;
  for (int id : queries) {
    QueryCost cost;
    engine.Knn(QueryStrategy::kVectorSetFilter, id, 10, &cost);
    flat += cost;
  }

  std::vector<int> id_order(db.size());
  std::iota(id_order.begin(), id_order.end(), 0);
  const struct {
    const char* name;
    QueryEngine* engine;
    std::vector<int> order;
  } layouts[] = {
      {"id order (unclustered)", &engine, id_order},
      {"X-tree leaf order", &engine, engine.centroid_index().LeafOrder()},
      {"one entry per set, first records in leaf order", &grouped,
       grouped.StoreRecordOrder()}};

  TablePrinter table({"buffer pool", "store layout", "pages charged",
                      "I/O time", "vs flat simulation"});
  table.AddRow({"none (paper's simulation)", "-",
                std::to_string(flat.io.page_accesses()),
                TablePrinter::Num(flat.IoSeconds(), 2) + " s", "1.00x"});

  for (size_t pool_pages : {4ul, 16ul, 64ul, 256ul}) {
    for (const auto& layout : layouts) {
      StatusOr<VectorSetStore> store =
          VectorSetStore::Create(store_path, page_size, pool_pages);
      Status st = store.status();
      for (size_t i = 0; st.ok() && i < layout.order.size(); ++i) {
        const int id = layout.order[i];
        st = store->Append(id, db.object(id).vector_set);
      }
      if (st.ok()) st = store->Flush();
      if (!st.ok()) {
        std::fprintf(stderr, "%s\n", st.ToString().c_str());
        return 1;
      }
      layout.engine->AttachStore(&*store);
      QueryCost cached;
      for (int id : queries) {
        QueryCost cost;
        layout.engine->Knn(QueryStrategy::kVectorSetFilter, id, 10, &cost);
        cached += cost;
      }
      layout.engine->AttachStore(nullptr);
      const double ratio = static_cast<double>(cached.io.page_accesses()) /
                           static_cast<double>(flat.io.page_accesses());
      table.AddRow({std::to_string(pool_pages) + " pages", layout.name,
                    std::to_string(cached.io.page_accesses()),
                    TablePrinter::Num(cached.IoSeconds(), 2) + " s",
                    TablePrinter::Num(ratio, 2) + "x"});
      std::remove(store_path.c_str());
    }
  }
  table.Print();
  std::printf("\nWith a warm cache the filter step's random accesses "
              "collapse onto the hot pages, closing much of its I/O gap "
              "to the sequential scan (cf. Table 2); laying the store "
              "out in the filter's leaf order packs each query's "
              "candidates onto few pages, so far smaller pools "
              "suffice.\n");
  return 0;
}
