// Shared plumbing for the per-table / per-figure benchmark binaries.
//
// Every binary prints the same row/series structure as the paper's
// table or figure it reproduces. Defaults are sized so the whole bench
// directory runs in a few minutes; setting VSIM_FULL=1 switches to the
// paper's data set sizes (200 car / 5000 aircraft parts) and enables
// the rotation+reflection-invariant evaluation on the car data set.
#ifndef VSIM_BENCH_BENCH_UTIL_H_
#define VSIM_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <functional>
#include <cstdlib>
#include <string>

#include "vsim/cluster/cluster_quality.h"
#include "vsim/cluster/optics.h"
#include "vsim/common/table_printer.h"
#include "vsim/core/similarity.h"
#include "vsim/data/dataset.h"

namespace vsim::bench {

inline bool FullRun() {
  const char* env = std::getenv("VSIM_FULL");
  return env != nullptr && env[0] == '1';
}

// VSIM_CSV=1 makes every reachability figure also print its raw CSV
// series (position, object, reachability) -- the machine-readable form
// of the paper's plot data.
inline bool CsvOutput() {
  const char* env = std::getenv("VSIM_CSV");
  return env != nullptr && env[0] == '1';
}

// --json FILE: bench_kernels takes an optional output path and writes
// its single JSON result line there in addition to printing it
// (BENCH_kernels.json is checked in from such a run).
inline std::string JsonOutPath(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json") return argv[i + 1];
  }
  return "";
}

// Prints the "JSON: " line and, if `path` is nonempty, writes the raw
// JSON there. Returns 0, or 1 if the file cannot be written.
inline int EmitJson(const std::string& json, const std::string& path) {
  std::printf("\nJSON: %s\n", json.c_str());
  if (path.empty()) return 0;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr || std::fprintf(f, "%s\n", json.c_str()) < 0) {
    std::fprintf(stderr, "cannot write --json %s\n", path.c_str());
    if (f != nullptr) std::fclose(f);
    return 1;
  }
  std::fclose(f);
  return 0;
}

struct BenchConfig {
  size_t car_objects;
  size_t aircraft_objects;
  bool invariant_car;       // random poses + Definition-2 distances
  bool invariant_aircraft;  // (expensive: 48x per distance)
};

inline BenchConfig Config() {
  if (FullRun()) {
    // Paper sizes. Invariant evaluation on the aircraft set would cost
    // 48 x 25M matching distances; the paper stores objects in a
    // standardized position, so canonical poses are used there.
    return {200, 5000, true, false};
  }
  return {140, 500, true, false};
}

// Builds the car data set (optionally in random poses) and its feature
// database. Exits on error (benches are top-level binaries).
inline Dataset CarDataset(const BenchConfig& cfg) {
  Dataset ds = MakeCarDataset(cfg.car_objects, 42);
  if (cfg.invariant_car) ApplyRandomOrientations(&ds, 4711, true);
  return ds;
}

inline Dataset AircraftDataset(const BenchConfig& cfg) {
  Dataset ds = MakeAircraftDataset(cfg.aircraft_objects, 7);
  if (cfg.invariant_aircraft) ApplyRandomOrientations(&ds, 1337, true);
  return ds;
}

inline CadDatabase BuildDatabase(const Dataset& ds,
                                 const ExtractionOptions& opt) {
  StatusOr<CadDatabase> db = CadDatabase::FromDataset(ds, opt);
  if (!db.ok()) {
    std::fprintf(stderr, "feature extraction failed: %s\n",
                 db.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(db).value();
}

// OPTICS under the model, honoring the invariance flag.
inline OpticsResult RunModelOptics(const CadDatabase& db, ModelType model,
                                   bool invariant, int min_pts = 4) {
  OpticsOptions opt;
  opt.min_pts = min_pts;
  const PairwiseDistanceFn fn =
      invariant ? db.InvariantDistanceFunction(model, true)
                : db.DistanceFunction(model);
  StatusOr<OpticsResult> result =
      RunOptics(static_cast<int>(db.size()), fn, opt);
  if (!result.ok()) {
    std::fprintf(stderr, "OPTICS failed: %s\n",
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

// Prints one reachability-plot "figure": ASCII art plus the best-cut
// quality line, and optionally the raw CSV series.
inline void PrintReachabilityFigure(const char* title,
                                    const OpticsResult& result,
                                    const std::vector<int>& eval_labels,
                                    bool print_csv = CsvOutput()) {
  std::printf("\n--- %s ---\n", title);
  std::printf("%s", ReachabilityAscii(result, 10, 110).c_str());
  const ClusterQuality q = BestCutQuality(result, eval_labels, 32, 3);
  std::printf("best cut: %d clusters, purity %.2f, ARI %.2f, NMI %.2f, "
              "noise %.0f%%  =>  score %.2f\n",
              q.cluster_count, q.purity, q.adjusted_rand, q.nmi,
              100 * q.noise_fraction, q.Score());
  // Hierarchy structure (the paper's G -> G1/G2 observation): how many
  // cluster-tree nodes split into sub-clusters, and how deep the
  // nesting goes.
  const std::vector<ClusterNode> tree = ExtractClusterTree(result, 3);
  size_t splits = 0;
  int depth = 0;
  std::function<void(const ClusterNode&, int)> walk =
      [&](const ClusterNode& node, int d) {
        depth = std::max(depth, d);
        if (node.children.size() >= 2) ++splits;
        for (const ClusterNode& child : node.children) walk(child, d + 1);
      };
  for (const ClusterNode& root : tree) walk(root, 1);
  std::printf("hierarchy: %zu splitting nodes, depth %d\n", splits, depth);
  if (print_csv) {
    std::printf("csv:\n%s", ReachabilityCsv(result, -1.0).c_str());
  }
}

}  // namespace vsim::bench

#endif  // VSIM_BENCH_BENCH_UTIL_H_
