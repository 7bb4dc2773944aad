// Kernel benchmark (docs/KERNELS.md): measures the cost-matrix build
// kernel against the pinned scalar reference, per implementation, at
// the paper's set shape (7x7 vectors, 6-d ground space) and at a
// larger block; and, per implementation at 7x7, the prepared
// row-minimum bound against building the matrix and summing its row
// minima, the refinement prune it replaces.
//
// Prints a table plus one JSON line; `--json FILE` additionally writes
// the raw JSON (BENCH_kernels.json is checked in from such a run).
#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "vsim/common/rng.h"
#include "vsim/common/stopwatch.h"
#include "vsim/common/table_printer.h"
#include "vsim/kernels/kernels.h"

using namespace vsim;

namespace {

// Times `fn` by growing the batch until one window is long enough to
// trust, then takes the fastest of several windows (minimum is the
// standard noise filter for microbenches on a shared core) and returns
// nanoseconds per call.
double NsPerCall(const std::function<void()>& fn) {
  size_t iters = 64;
  for (;;) {
    Stopwatch watch;
    for (size_t i = 0; i < iters; ++i) fn();
    if (watch.ElapsedSeconds() > 0.05 || iters > (1u << 24)) break;
    iters *= 4;
  }
  double best = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    Stopwatch watch;
    for (size_t i = 0; i < iters; ++i) fn();
    best = std::min(best, watch.ElapsedSeconds());
  }
  return best * 1e9 / static_cast<double>(iters);
}

std::vector<double> RandomBlock(size_t values, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> block(values);
  for (double& v : block) v = rng.NextDouble();
  return block;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("Kernel benchmark (active kernel set: %s)\n\n",
              kernels::Active().name);

  struct Variant {
    const char* label;
    const kernels::KernelSet* set;
  };
  std::vector<Variant> variants = {
      {"scalar", &kernels::ForceScalar()},
      {"portable", &kernels::Portable()},
      {"best", &kernels::BestAvailable()},
  };

  // --- cost-matrix build -------------------------------------------
  // The paper's shape: two sets of 7 vectors in the 6-d ground space,
  // written into a 14-wide square Hungarian matrix (surplus dummy
  // columns). The larger 64x64 block shows the asymptotic gap.
  struct Shape {
    size_t m, n, dim, stride;
  };
  const std::vector<Shape> shapes = {{7, 7, 6, 14}, {64, 64, 6, 64}};
  TablePrinter cost_table(
      {"cost matrix", "scalar ns", "portable ns", "best ns", "best speedup"});
  std::string cost_json;
  for (const Shape& s : shapes) {
    const std::vector<double> a = RandomBlock(s.m * s.dim, 1);
    const std::vector<double> b = RandomBlock(s.n * s.dim, 2);
    std::vector<double> out(s.m * s.stride, 0.0);
    std::vector<double> ns;
    for (const Variant& v : variants) {
      const kernels::CostMatrixBuildFn fn = v.set->cost_matrix_build;
      ns.push_back(NsPerCall([&] {
        fn(kernels::GroundKind::kEuclidean, a.data(), s.m, b.data(), s.n,
           s.dim, out.data(), s.stride);
      }));
    }
    const double speedup = ns[0] / ns[2];
    cost_table.AddRow({std::to_string(s.m) + "x" + std::to_string(s.n),
                       TablePrinter::Num(ns[0], 1), TablePrinter::Num(ns[1], 1),
                       TablePrinter::Num(ns[2], 1),
                       TablePrinter::Num(speedup, 2) + "x"});
    if (!cost_json.empty()) cost_json += ",";
    cost_json += "\"" + std::to_string(s.m) + "x" + std::to_string(s.n) +
                 "\":{\"scalar_ns\":" + TablePrinter::Num(ns[0], 1) +
                 ",\"portable_ns\":" + TablePrinter::Num(ns[1], 1) +
                 ",\"best_ns\":" + TablePrinter::Num(ns[2], 1) +
                 ",\"speedup_best\":" + TablePrinter::Num(speedup, 3) + "}";
  }
  cost_table.Print();

  // --- prepared query at 7x7 ---------------------------------------
  // Both sets hold 7 vectors, so the matrix is 7x7 with no weight
  // columns; the query's lanes and weights are laid out once, outside
  // the timed calls, as PreparedQuery does once per query.
  const size_t kSet = 7, kDim = 6;
  const std::vector<double> query = RandomBlock(kSet * kDim, 3);
  const std::vector<double> candidate = RandomBlock(kSet * kDim, 4);
  std::vector<double> lanes(kDim * kernels::PreparedStride(kSet));
  kernels::LayOutLanes(query.data(), kSet, kDim, lanes.data());
  const std::vector<double> weights(kernels::PreparedStride(kSet), 1.0);
  const kernels::PreparedSet prepared{query.data(), lanes.data(),
                                      weights.data(), kSet, kDim};
  const FlatVectorSet cand{candidate.data(), kSet, kDim};
  std::vector<double> matrix(kSet * kSet);
  double sink = 0.0;
  TablePrinter prepared_table(
      {"prepared 7x7", "matrix + row min ns", "bound ns", "bound speedup"});
  std::string prepared_json;
  for (const Variant& v : variants) {
    const kernels::KernelSet& ks = *v.set;
    const double rowmin_ns = NsPerCall([&] {
      ks.cost_matrix_build(kernels::GroundKind::kEuclidean, query.data(), kSet,
                           candidate.data(), kSet, kDim, matrix.data(), kSet);
      double bound = 0.0;
      for (size_t i = 0; i < kSet; ++i) {
        const double* row = matrix.data() + i * kSet;
        bound += *std::min_element(row, row + kSet);
      }
      sink += bound;
    });
    const double bound_ns = NsPerCall(
        [&] { sink += ks.prepared_bound(prepared, cand, nullptr); });
    const double speedup = rowmin_ns / bound_ns;
    prepared_table.AddRow({v.label, TablePrinter::Num(rowmin_ns, 1),
                           TablePrinter::Num(bound_ns, 1),
                           TablePrinter::Num(speedup, 2) + "x"});
    if (!prepared_json.empty()) prepared_json += ",";
    prepared_json += "\"" + std::string(v.label) +
                     "\":{\"matrix_row_min_ns\":" +
                     TablePrinter::Num(rowmin_ns, 1) +
                     ",\"bound_ns\":" + TablePrinter::Num(bound_ns, 1) +
                     ",\"speedup_bound\":" + TablePrinter::Num(speedup, 3) +
                     "}";
  }
  std::printf("\n");
  prepared_table.Print();
  if (sink == 0.0) std::printf("(checksum %g)\n", sink);

  const std::string json =
      "{\"bench\":\"kernels\",\"active\":\"" +
      std::string(kernels::Active().name) + "\",\"cost_matrix\":{" +
      cost_json + "},\"prepared_7x7\":{" + prepared_json + "}}";
  return bench::EmitJson(json, bench::JsonOutPath(argc, argv));
}
