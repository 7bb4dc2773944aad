// Ablation B: quality of the extended-centroid filter (Lemma 2).
//   - bound tightness: distribution of filter_distance / exact_distance
//     over random object pairs (1.0 = tight, 0 = vacuous);
//   - k-NN selectivity: refined candidates / database size, per k;
//   - range selectivity vs eps.
// Selectivity is measured on the per-object index (SetGrouping::kNone),
// with the refinements of one entry per distinct vector set beside it.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "vsim/common/rng.h"
#include "vsim/core/query_engine.h"
#include "vsim/distance/centroid_filter.h"
#include "vsim/kernels/kernels.h"
#include "vsim/distance/min_matching.h"

using namespace vsim;

int main() {
  const bench::BenchConfig cfg = bench::Config();
  ExtractionOptions opt;
  opt.extract_histograms = false;
  const Dataset ds = bench::AircraftDataset(cfg);
  const CadDatabase db = bench::BuildDatabase(ds, opt);
  const int k = db.options().num_covers;

  std::printf("Ablation B: extended-centroid filter quality "
              "(aircraft-like, %zu objects, k = %d)\n\n",
              db.size(), k);

  // --- Bound tightness ---------------------------------------------
  Rng rng(99);
  std::vector<double> ratios;
  for (int trial = 0; trial < 3000; ++trial) {
    const int a = static_cast<int>(rng.NextBounded(db.size()));
    const int b = static_cast<int>(rng.NextBounded(db.size()));
    if (a == b) continue;
    const double exact = db.Distance(ModelType::kVectorSet, a, b);
    if (exact <= 0) continue;
    const double bound = kernels::CentroidFilterBound(db.object(a).centroid,
                                                db.object(b).centroid, k);
    ratios.push_back(bound / exact);
  }
  std::sort(ratios.begin(), ratios.end());
  auto pct = [&](double q) { return ratios[static_cast<size_t>(q * (ratios.size() - 1))]; };
  std::printf("bound/exact ratio over %zu random pairs:\n", ratios.size());
  std::printf("  p10 %.3f   median %.3f   p90 %.3f   max %.3f "
              "(must be <= 1.0: Lemma 2)\n\n",
              pct(0.10), pct(0.50), pct(0.90), ratios.back());

  // --- k-NN selectivity ---------------------------------------------
  QueryEngine engine(&db, {}, SetGrouping::kNone);
  QueryEngine grouped(&db);
  TablePrinter knn_table({"k-NN k", "refined/query", "fraction of DB",
                          "refined/query (one entry per set)"});
  for (int kk : {1, 5, 10, 20, 50}) {
    QueryCost total, total_grouped;
    const int queries = 50;
    for (int q = 0; q < queries; ++q) {
      const int id = static_cast<int>(rng.NextBounded(db.size()));
      QueryCost cost;
      engine.Knn(QueryStrategy::kVectorSetFilter, id, kk, &cost);
      total += cost;
      grouped.Knn(QueryStrategy::kVectorSetFilter, id, kk, &cost);
      total_grouped += cost;
    }
    const double per_query =
        static_cast<double>(total.candidates_refined) / queries;
    knn_table.AddRow(
        {std::to_string(kk), TablePrinter::Num(per_query, 1),
         TablePrinter::Num(per_query / db.size() * 100, 1) + "%",
         TablePrinter::Num(
             static_cast<double>(total_grouped.candidates_refined) / queries,
             1)});
  }
  knn_table.Print();

  // --- Range selectivity ---------------------------------------------
  // eps values as quantiles of the pairwise exact distance distribution.
  std::vector<double> exacts;
  for (int trial = 0; trial < 2000; ++trial) {
    const int a = static_cast<int>(rng.NextBounded(db.size()));
    const int b = static_cast<int>(rng.NextBounded(db.size()));
    if (a != b) exacts.push_back(db.Distance(ModelType::kVectorSet, a, b));
  }
  std::sort(exacts.begin(), exacts.end());
  TablePrinter range_table({"eps (quantile)", "filter candidates",
                            "true results", "precision",
                            "candidates (one entry per set)"});
  for (double q : {0.01, 0.05, 0.10, 0.25}) {
    const double eps = exacts[static_cast<size_t>(q * (exacts.size() - 1))];
    size_t candidates = 0, grouped_candidates = 0, results = 0;
    const int queries = 30;
    for (int i = 0; i < queries; ++i) {
      const int id = static_cast<int>(rng.NextBounded(db.size()));
      QueryCost cost;
      const auto res = engine.Range(QueryStrategy::kVectorSetFilter,
                                    db.object(id), eps, &cost);
      candidates += cost.candidates_refined;
      results += res.size();
      grouped.Range(QueryStrategy::kVectorSetFilter, db.object(id), eps,
                    &cost);
      grouped_candidates += cost.candidates_refined;
    }
    range_table.AddRow(
        {TablePrinter::Num(eps, 3) + " (q" + TablePrinter::Num(q, 2) + ")",
         TablePrinter::Num(static_cast<double>(candidates) / queries, 1),
         TablePrinter::Num(static_cast<double>(results) / queries, 1),
         TablePrinter::Num(
             candidates ? 100.0 * results / candidates : 100.0, 1) + "%",
         TablePrinter::Num(static_cast<double>(grouped_candidates) / queries,
                           1)});
  }
  range_table.Print();
  return 0;
}
