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
// vector set, the engine's default.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "vsim/common/rng.h"
#include "vsim/core/query_engine.h"

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

  Rng rng(20030609);  // SIGMOD 2003 opening day
  std::vector<int> queries;
  for (int q = 0; q < kQueries; ++q) {
    queries.push_back(static_cast<int>(rng.NextBounded(db.size())));
  }

  TablePrinter table({"Model", "CPU time", "I/O time", "total time",
                      "2003-adj. total", "refined/query", "solved/query",
                      "pages/query"});
  const struct {
    const QueryEngine* engine;
    QueryStrategy strategy;
    const char* suffix;
  } rows[] = {
      {&engine, QueryStrategy::kOneVectorXTree, ""},
      {&engine, QueryStrategy::kVectorSetFilter, ""},
      {&engine, QueryStrategy::kVectorSetScan, ""},
      {&engine, QueryStrategy::kVectorSetMTree, ""},
      {&grouped, QueryStrategy::kVectorSetFilter, " (one entry per set)"},
      {&grouped, QueryStrategy::kVectorSetScan, " (one entry per set)"},
  };
  constexpr size_t kScanRow = 2;  // the paper's per-object scan
  std::vector<QueryCost> totals;
  for (const auto& row : rows) {
    QueryCost total;
    for (int id : queries) {
      QueryCost cost;
      row.engine->Knn(row.strategy, id, kK, &cost);
      total += cost;
    }
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
    table.AddRow({std::string(QueryStrategyName(rows[r].strategy)) +
                      rows[r].suffix,
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
