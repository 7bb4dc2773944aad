// Kuhn-Munkres / Hungarian algorithm for the linear assignment problem,
// the O(k^3) machinery behind the minimal matching distance (Section
// 4.2). Implemented as shortest augmenting paths with dual potentials
// (Jonker-Volgenant formulation), supporting rectangular cost matrices
// with rows <= columns (every row is assigned to a distinct column).
#ifndef VSIM_DISTANCE_HUNGARIAN_H_
#define VSIM_DISTANCE_HUNGARIAN_H_

#include <vector>

namespace vsim {

// Problems with at most this many columns keep all solver scratch on
// the stack; larger ones allocate it.
inline constexpr int kInlineAssignmentCols = 16;

// The one Kuhn-Munkres core. Solves min sum_i cost[i][column_of[i]]
// over injective assignments of all rows to columns. `cost` is
// row-major with `rows` x `cols`, rows <= cols; costs may be any finite
// doubles. Writes the assignment to column_of[0, rows) when non-null
// and returns the total cost, summed in row order.
double SolveAssignment(const double* cost, int rows, int cols,
                       int* column_of);

struct AssignmentResult {
  // column_of[i] = column assigned to row i.
  std::vector<int> column_of;
  double total_cost = 0.0;
};

// Convenience form over a vector-held matrix (cost.size() must equal
// rows * cols).
AssignmentResult SolveAssignment(const std::vector<double>& cost, int rows,
                                 int cols);

}  // namespace vsim

#endif  // VSIM_DISTANCE_HUNGARIAN_H_
