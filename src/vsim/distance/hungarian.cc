#include "vsim/distance/hungarian.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <limits>

#include "vsim/common/scratch_array.h"

namespace vsim {

double SolveAssignment(const double* cost, int rows, int cols,
                       int* column_of) {
  assert(rows <= cols);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr size_t kSlots = kInlineAssignmentCols + 1;
  const size_t slots = static_cast<size_t>(cols) + 1;

  // 1-based arrays per the classic formulation; column 0 is a sentinel.
  ScratchArray<double, kSlots> u_store(slots), v_store(slots),
      minv_store(slots);
  ScratchArray<int, kSlots> row_of_store(slots), way_store(slots);
  ScratchArray<char, kSlots> used_store(slots);
  double* u = u_store.data();        // row potentials (rows + 1 used)
  double* v = v_store.data();        // column potentials
  double* minv = minv_store.data();  // Dijkstra distances of this row
  int* row_of = row_of_store.data(); // row matched to each column
  int* way = way_store.data();       // predecessor column on path
  char* used = used_store.data();
  std::fill(u, u + rows + 1, 0.0);
  std::fill(v, v + slots, 0.0);
  std::fill(row_of, row_of + slots, 0);
  std::fill(way, way + slots, 0);

  for (int i = 1; i <= rows; ++i) {
    // Find an augmenting path for row i (Dijkstra over reduced costs).
    row_of[0] = i;
    int j0 = 0;
    std::fill(minv, minv + slots, kInf);
    std::fill(used, used + slots, 0);
    do {
      used[j0] = 1;
      const int i0 = row_of[j0];
      double delta = kInf;
      int j1 = -1;
      for (int j = 1; j <= cols; ++j) {
        if (used[j]) continue;
        const double cur =
            cost[static_cast<size_t>(i0 - 1) * cols + (j - 1)] - u[i0] - v[j];
        if (cur < minv[j]) {
          minv[j] = cur;
          way[j] = j0;
        }
        if (minv[j] < delta) {
          delta = minv[j];
          j1 = j;
        }
      }
      for (int j = 0; j <= cols; ++j) {
        if (used[j]) {
          u[row_of[j]] += delta;
          v[j] -= delta;
        } else {
          minv[j] -= delta;
        }
      }
      j0 = j1;
    } while (row_of[j0] != 0);
    // Unwind the augmenting path.
    do {
      const int j1 = way[j0];
      row_of[j0] = row_of[j1];
      j0 = j1;
    } while (j0 != 0);
  }

  // Read the assignment off the column side; `way` is free scratch now.
  int* assigned = column_of != nullptr ? column_of : way;
  for (int j = 1; j <= cols; ++j) {
    if (row_of[j] > 0) assigned[row_of[j] - 1] = j - 1;
  }
  double total = 0.0;
  for (int i = 0; i < rows; ++i) {
    total += cost[static_cast<size_t>(i) * cols + assigned[i]];
  }
  return total;
}

AssignmentResult SolveAssignment(const std::vector<double>& cost, int rows,
                                 int cols) {
  assert(static_cast<size_t>(rows) * cols == cost.size());
  AssignmentResult result;
  result.column_of.assign(rows, -1);
  result.total_cost =
      SolveAssignment(cost.data(), rows, cols, result.column_of.data());
  return result;
}

}  // namespace vsim
