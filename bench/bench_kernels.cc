// Kernel benchmark (docs/KERNELS.md): measures the cost-matrix build
// kernel against the pinned scalar reference, per implementation, at
// the paper's set shape (7x7 vectors, 6-d ground space) and at a
// larger block; per implementation at 7x7, the prepared row-minimum
// bound against building the matrix and summing its row minima, the
// refinement prune it replaces; and, on one 7x7 matrix, the reduction
// bound against a cold Kuhn-Munkres solve, the trade the prepared
// query's second prune rung makes per candidate.
//
// Every cell is measured kRepeats times, interleaved with the other
// cells of its row, and reported as the median with the min-max band
// of those repeats. Prints a table plus one JSON line; `--json FILE`
// additionally writes the raw JSON (BENCH_kernels.json is checked in
// from such a run).
#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "vsim/common/rng.h"
#include "vsim/common/stopwatch.h"
#include "vsim/common/table_printer.h"
#include "vsim/distance/hungarian.h"
#include "vsim/distance/min_matching.h"
#include "vsim/kernels/kernels.h"

using namespace vsim;

namespace {

constexpr int kRepeats = 5;

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

// The median and the min-max band of one cell's repeats.
struct Band {
  double median, lo, hi;
};

// Times every cell of a row kRepeats times, round-robin, so that the
// host's load drift touches the row's cells alike.
std::vector<Band> TimeRow(const std::vector<std::function<void()>>& cells) {
  std::vector<std::vector<double>> samples(cells.size());
  for (int rep = 0; rep < kRepeats; ++rep) {
    for (size_t c = 0; c < cells.size(); ++c) {
      samples[c].push_back(NsPerCall(cells[c]));
    }
  }
  std::vector<Band> bands;
  for (std::vector<double>& s : samples) {
    std::sort(s.begin(), s.end());
    bands.push_back({s[s.size() / 2], s.front(), s.back()});
  }
  return bands;
}

std::string Cell(const Band& b) {
  return TablePrinter::Num(b.median, 1) + " [" + TablePrinter::Num(b.lo, 1) +
         "-" + TablePrinter::Num(b.hi, 1) + "]";
}

// "<key>_ns":median,"<key>_band":[lo,hi]
std::string JsonBand(const std::string& key, const Band& b) {
  return "\"" + key + "_ns\":" + TablePrinter::Num(b.median, 1) + ",\"" +
         key + "_band\":[" + TablePrinter::Num(b.lo, 1) + "," +
         TablePrinter::Num(b.hi, 1) + "]";
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
  // written at stride 7 as the minimal-matching core writes its square
  // m x m matrix. The larger 64x64 block shows the asymptotic gap.
  struct Shape {
    size_t m, n, dim;
  };
  const std::vector<Shape> shapes = {{7, 7, 6}, {64, 64, 6}};
  TablePrinter cost_table({"cost matrix", "scalar ns", "portable ns",
                           "best ns", "best speedup"});
  std::string cost_json;
  for (const Shape& s : shapes) {
    const std::vector<double> a = RandomBlock(s.m * s.dim, 1);
    const std::vector<double> b = RandomBlock(s.n * s.dim, 2);
    std::vector<double> out(s.m * s.n, 0.0);
    std::vector<std::function<void()>> cells;
    for (const Variant& v : variants) {
      const kernels::CostMatrixBuildFn fn = v.set->cost_matrix_build;
      cells.push_back([&, fn] {
        fn(kernels::GroundKind::kEuclidean, a.data(), s.m, b.data(), s.n,
           s.dim, out.data(), s.n);
      });
    }
    const std::vector<Band> ns = TimeRow(cells);
    const double speedup = ns[0].median / ns[2].median;
    const std::string shape = std::to_string(s.m) + "x" + std::to_string(s.n);
    cost_table.AddRow({shape, Cell(ns[0]), Cell(ns[1]), Cell(ns[2]),
                       TablePrinter::Num(speedup, 2) + "x"});
    if (!cost_json.empty()) cost_json += ",";
    cost_json += "\"" + shape + "\":{" + JsonBand("scalar", ns[0]) + "," +
                 JsonBand("portable", ns[1]) + "," + JsonBand("best", ns[2]) +
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
  TablePrinter prepared_table({"prepared 7x7", "matrix + row min ns",
                               "bound ns", "bound speedup"});
  std::string prepared_json;
  for (const Variant& v : variants) {
    const kernels::KernelSet& ks = *v.set;
    const std::vector<Band> ns = TimeRow({
        [&] {
          ks.cost_matrix_build(kernels::GroundKind::kEuclidean, query.data(),
                               kSet, candidate.data(), kSet, kDim,
                               matrix.data(), kSet);
          double bound = 0.0;
          for (size_t i = 0; i < kSet; ++i) {
            const double* row = matrix.data() + i * kSet;
            bound += *std::min_element(row, row + kSet);
          }
          sink += bound;
        },
        [&] { sink += ks.prepared_bound(prepared, cand, nullptr); },
    });
    const double speedup = ns[0].median / ns[1].median;
    prepared_table.AddRow({v.label, Cell(ns[0]), Cell(ns[1]),
                           TablePrinter::Num(speedup, 2) + "x"});
    if (!prepared_json.empty()) prepared_json += ",";
    prepared_json += "\"" + std::string(v.label) + "\":{" +
                     JsonBand("matrix_row_min", ns[0]) + "," +
                     JsonBand("bound", ns[1]) + ",\"speedup_bound\":" +
                     TablePrinter::Num(speedup, 3) + "}";
  }
  std::printf("\n");
  prepared_table.Print();

  // --- reduction bound against the solve at 7x7 ---------------------
  // One 7x7 matrix from the active kernels, the shape the prepared
  // query builds for a candidate its row-minimum bound did not rule
  // out: the reduction bound's column pass against a cold
  // SolveAssignment, which the bound spares when it rules the
  // candidate out. Neither depends on the kernel set.
  kernels::Active().cost_matrix_build(kernels::GroundKind::kEuclidean,
                                      query.data(), kSet, candidate.data(),
                                      kSet, kDim, matrix.data(), kSet);
  const int size = static_cast<int>(kSet);
  const std::vector<Band> reduce_ns = TimeRow({
      [&] { sink += ReductionBound(matrix.data(), kSet); },
      [&] { sink += SolveAssignment(matrix.data(), size, size, nullptr); },
  });
  const double solve_ratio = reduce_ns[1].median / reduce_ns[0].median;
  TablePrinter reduce_table(
      {"reduce 7x7", "reduction bound ns", "solve ns", "solve / bound"});
  reduce_table.AddRow({kernels::Active().name, Cell(reduce_ns[0]),
                       Cell(reduce_ns[1]),
                       TablePrinter::Num(solve_ratio, 2) + "x"});
  std::printf("\n");
  reduce_table.Print();
  if (sink == 0.0) std::printf("(checksum %g)\n", sink);

  const std::string json =
      "{\"bench\":\"kernels\",\"active\":\"" +
      std::string(kernels::Active().name) + "\",\"cost_matrix\":{" +
      cost_json + "},\"prepared_7x7\":{" + prepared_json +
      "},\"reduce_7x7\":{" + JsonBand("reduction_bound", reduce_ns[0]) + "," +
      JsonBand("solve", reduce_ns[1]) + ",\"solve_over_bound\":" +
      TablePrinter::Num(solve_ratio, 3) + "}}";
  return bench::EmitJson(json, bench::JsonOutPath(argc, argv));
}
