// Table 2: runtimes for 100 sample 10-NN queries on the Aircraft data
// set under the paper's simulated I/O cost model (one page access =
// 8 ms, one byte read = 200 ns):
//
//            paper (s, 100 queries):   CPU       I/O     total
//   1-Vect. (X-tree)                 142.82   2632.06   2774.88
//   Vect. Set w. filter              105.88    932.80   1038.68
//   Vect. Set seq. scan             1025.32    806.40   1831.72
//
// Absolute numbers differ (2026 CPU vs 2003, synthetic parts), but the
// shape is the target: the filter step cuts exact distance evaluations
// ~10x vs the scan, its random-access I/O is more expensive than the
// scan's sequential read, yet it wins on total time; the vector set
// with filter is in the same order of magnitude as (and not worse
// than) the one-vector X-tree.
//
// The paper's rows index every object (SetGrouping::kNone). The filter
// and scan are printed a second time with one entry per distinct
// vector set, the engine's default. The bonus M-tree row (the metric
// index of Section 4.3) is built here, not by the engine.
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "vsim/common/rng.h"
#include "vsim/common/stopwatch.h"
#include "vsim/core/query_engine.h"
#include "vsim/distance/min_matching.h"
#include "vsim/index/mtree.h"

using namespace vsim;

int main() {
  const bench::BenchConfig cfg = bench::Config();
  const int kQueries = 100;
  const int kK = 10;

  std::printf("Table 2 reproduction: %d sample %d-NN queries\n", kQueries,
              kK);
  std::printf("Aircraft-like data set, %zu objects, k = 7 covers, "
              "simulated I/O (8 ms/page, 200 ns/byte)\n\n",
              cfg.aircraft_objects);

  ExtractionOptions opt;
  opt.extract_histograms = false;
  const Dataset ds = bench::AircraftDataset(cfg);
  const CadDatabase db = bench::BuildDatabase(ds, opt);
  QueryEngine engine(&db, {}, SetGrouping::kNone);
  QueryEngine grouped(&db);

  // The bonus row's metric index: every object's vector set inserted in
  // id order under the minimal matching distance, with the page size of
  // the default cost model and one object sized as k covers of the
  // extended centroid's dimension.
  MTreeOptions mopts;
  mopts.page_size_bytes = IoCostParams{}.page_size_bytes;
  mopts.object_bytes = static_cast<size_t>(db.options().num_covers) *
                       db.object(0).centroid.size() * sizeof(double);
  MTree<VectorSet> mtree(
      [](const VectorSet& a, const VectorSet& b) {
        return VectorSetDistance(a, b);
      },
      mopts);
  for (int id = 0; id < static_cast<int>(db.size()); ++id) {
    mtree.Insert(db.object(id).vector_set, id);
  }

  Rng rng(20030609);  // SIGMOD 2003 opening day
  std::vector<int> queries;
  for (int q = 0; q < kQueries; ++q) {
    queries.push_back(static_cast<int>(rng.NextBounded(db.size())));
  }

  TablePrinter table({"Model", "CPU time", "I/O time", "total time",
                      "2003-adj. total", "refined/query", "solved/query",
                      "pages/query"});
  struct Row {
    std::string name;
    std::function<QueryCost(int)> knn;  // one query's cost
  };
  const auto engine_row = [&](const QueryEngine* e, QueryStrategy strategy,
                              const char* suffix) {
    return Row{std::string(QueryStrategyName(strategy)) + suffix,
               [=](int id) {
                 QueryCost cost;
                 e->Knn(strategy, id, kK, &cost);
                 return cost;
               }};
  };
  // Every distance the M-tree evaluates is a Kuhn-Munkres solve.
  const Row mtree_row{"vector set M-tree", [&](int id) {
                        QueryCost cost;
                        Stopwatch watch;
                        mtree.KnnQuery(db.object(id).vector_set, kK, &cost.io,
                                       &cost.candidates_refined);
                        cost.cpu_seconds = watch.ElapsedSeconds();
                        cost.hungarian_invocations = cost.candidates_refined;
                        return cost;
                      }};
  const Row rows[] = {
      engine_row(&engine, QueryStrategy::kOneVectorXTree, ""),
      engine_row(&engine, QueryStrategy::kVectorSetFilter, ""),
      engine_row(&engine, QueryStrategy::kVectorSetScan, ""),
      mtree_row,
      engine_row(&grouped, QueryStrategy::kVectorSetFilter,
                 " (one entry per set)"),
      engine_row(&grouped, QueryStrategy::kVectorSetScan,
                 " (one entry per set)"),
  };
  constexpr size_t kScanRow = 2;  // the paper's per-object scan
  std::vector<QueryCost> totals;
  for (const Row& row : rows) {
    QueryCost total;
    for (int id : queries) total += row.knn(id);
    totals.push_back(total);
  }

  // Era calibration: the paper's scan row implies ~2.05 ms of CPU per
  // exact matching-distance evaluation on its 1.7 GHz Xeon
  // (1025.32 s / (100 queries * 5000 objects)). Modern CPUs evaluate
  // the same distance ~3 orders of magnitude faster while the simulated
  // I/O constants are fixed, which would silently invert the paper's
  // CPU/I-O balance. We therefore report measured CPU *and* an
  // era-adjusted total: CPU scaled so that one matching distance costs
  // the paper's 2.05 ms. The measured cost per distance is the scan
  // row's own, over all its queries, so the factor moves with the same
  // timings as the row it is derived from.
  const double kPaperSecondsPerDistance = 1025.32 / (100.0 * 5000.0);
  const QueryCost& scan = totals[kScanRow];
  const double measured_per_distance =
      scan.cpu_seconds / static_cast<double>(scan.candidates_refined);
  const double era_factor = kPaperSecondsPerDistance / measured_per_distance;

  for (size_t r = 0; r < totals.size(); ++r) {
    const QueryCost& total = totals[r];
    const double adjusted =
        total.cpu_seconds * era_factor + total.IoSeconds();
    table.AddRow({rows[r].name,
                  TablePrinter::Num(total.cpu_seconds, 3) + " s",
                  TablePrinter::Num(total.IoSeconds(), 2) + " s",
                  TablePrinter::Num(total.TotalSeconds(), 2) + " s",
                  TablePrinter::Num(adjusted, 2) + " s",
                  TablePrinter::Num(static_cast<double>(
                                        total.candidates_refined) /
                                        kQueries,
                                    1),
                  TablePrinter::Num(static_cast<double>(
                                        total.hungarian_invocations) /
                                        kQueries,
                                    1),
                  TablePrinter::Num(static_cast<double>(
                                        total.io.page_accesses()) /
                                        kQueries,
                                    1)});
  }
  table.Print();
  std::printf("\nera factor: measured %.2f us/matching-distance (the scan "
              "row's %d queries), paper ~%.0f us -> CPU x%.0f in the "
              "2003-adjusted column\n",
              1e6 * measured_per_distance, kQueries,
              1e6 * kPaperSecondsPerDistance, era_factor);
  std::printf(
      "(The M-tree row is a bonus strategy: the metric index of\n"
      " Section 4.3. The last two rows refine each distinct vector set\n"
      " once and give its distance to every object holding it;\n"
      " refined/query counts sets. solved/query counts the refinements\n"
      " that ran Kuhn-Munkres: the filter rows rule the others out on\n"
      " the row-minimum or the reduction bound.)\n");
  return 0;
}
