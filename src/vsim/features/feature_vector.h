// Basic feature-space types shared by all similarity models.
#ifndef VSIM_FEATURES_FEATURE_VECTOR_H_
#define VSIM_FEATURES_FEATURE_VECTOR_H_

#include <cstddef>
#include <vector>

namespace vsim {

// A point in R^d (Definition 1: objects are mapped to feature vectors).
using FeatureVector = std::vector<double>;

// An object represented as a set of d-dimensional feature vectors with
// bounded cardinality (the paper's vector set model, Section 4).
struct VectorSet {
  std::vector<FeatureVector> vectors;

  size_t size() const { return vectors.size(); }
  bool empty() const { return vectors.empty(); }
  size_t dim() const { return vectors.empty() ? 0 : vectors.front().size(); }
};

// Non-owning view of a vector set laid out as one contiguous row-major
// block: vector i occupies data[i*dim, (i+1)*dim). The layout the
// cost-matrix kernel reads and the record store decodes into.
struct FlatVectorSet {
  const double* data = nullptr;
  size_t size = 0;
  size_t dim = 0;
};

// Copies `set` into out[0, size * dim) in that layout and returns the
// view of `out`.
inline FlatVectorSet FlattenInto(const VectorSet& set, double* out) {
  const size_t dim = set.dim();
  double* dst = out;
  for (const FeatureVector& v : set.vectors) {
    for (size_t d = 0; d < dim; ++d) dst[d] = v[d];
    dst += dim;
  }
  return {out, set.size(), dim};
}

}  // namespace vsim

#endif  // VSIM_FEATURES_FEATURE_VECTOR_H_
