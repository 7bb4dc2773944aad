#ifndef VSIM_COMMON_MATH_UTIL_H_
#define VSIM_COMMON_MATH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

namespace vsim {

inline constexpr double kPi = 3.14159265358979323846;

// True if |a - b| is within `abs_tol` or within `rel_tol` * max(|a|,|b|).
inline bool AlmostEqual(double a, double b, double abs_tol = 1e-9,
                        double rel_tol = 1e-9) {
  const double diff = std::fabs(a - b);
  if (diff <= abs_tol) return true;
  return diff <= rel_tol * std::max(std::fabs(a), std::fabs(b));
}

template <typename T>
T Clamp(T v, T lo, T hi) {
  return std::min(std::max(v, lo), hi);
}

// Integer ceiling division for non-negative operands.
inline int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

inline double Square(double x) { return x * x; }

// The standard rounding-error factor gamma_n = n*u / (1 - n*u) for
// binary64 (unit roundoff u = 2^-53): a result computed with n
// rounded operations lies within a factor (1 +- gamma_n) of the exact
// one (Higham, Accuracy and Stability of Numerical Algorithms, Sec. 3.1).
inline double RoundingGamma(int n) {
  const double nu = n * (std::numeric_limits<double>::epsilon() / 2);
  return nu / (1.0 - nu);
}

}  // namespace vsim

#endif  // VSIM_COMMON_MATH_UTIL_H_
