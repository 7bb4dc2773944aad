// Vector-Approximation file (Weber, Schek, Blott; VLDB'98): every point
// is quantized to `bits_per_dim` bits per dimension, and queries scan
// the compact approximation file sequentially, computing per-point
// lower bounds that prune most exact-vector fetches. Quantization-based
// scans are the classic alternative to R-tree descendants in high
// dimensions -- the IQ-tree cited by the paper (Berchtold et al., ICDE
// 2000) combines this idea with a tree directory.
//
// Like the X-tree here, the structure lives in memory and *charges*
// simulated I/O: the approximation file is read sequentially, candidate
// vectors are fetched with one random page access each.
#ifndef VSIM_INDEX_VAFILE_H_
#define VSIM_INDEX_VAFILE_H_

#include <cstdint>
#include <vector>

#include "vsim/common/status.h"
#include "vsim/features/feature_vector.h"
#include "vsim/index/io_stats.h"
#include "vsim/index/multistep.h"
#include "vsim/index/xtree.h"  // Neighbor

namespace vsim {

struct VaFileOptions {
  int bits_per_dim = 4;  // 2^bits cells per dimension (1..8)
  size_t page_size_bytes = 4096;
};

class VaFile {
 public:
  explicit VaFile(int dim, VaFileOptions options = {});

  // Builds the approximation file over the point set (replaces any
  // previous contents). Quantization cells are equi-width between the
  // per-dimension min/max of the data.
  Status Build(const std::vector<FeatureVector>& points,
               const std::vector<int>& ids);

  size_t size() const { return ids_.size(); }

  // Exact queries on the stored points (approximation scan + refine).
  std::vector<int> RangeQuery(const FeatureVector& query, double eps,
                              IoStats* stats = nullptr,
                              size_t* refined = nullptr) const;
  std::vector<Neighbor> KnnQuery(const FeatureVector& query, int k,
                                 IoStats* stats = nullptr,
                                 size_t* refined = nullptr) const;

  // Filter-and-refine against an *external* exact distance (e.g. the
  // minimal matching distance with the stored points being extended
  // centroids): `filter_scale` * (Euclidean lower bound from the
  // approximation) must lower-bound `exact_distance`. Optimal stopping
  // as in Seidl & Kriegel; k <= 0 yields an empty answer.
  std::vector<Neighbor> MultiStepKnn(const FeatureVector& query,
                                     double filter_scale, int k,
                                     const ExactDistanceFn& exact_distance,
                                     IoStats* stats = nullptr,
                                     size_t* refined = nullptr) const;
  std::vector<int> MultiStepRange(const FeatureVector& query,
                                  double filter_scale, double eps,
                                  const ExactDistanceFn& exact_distance,
                                  IoStats* stats = nullptr,
                                  size_t* refined = nullptr) const;

  // Bytes of one approximation record / of the whole approximation file
  // (what a query reads sequentially).
  size_t ApproximationBytes() const;

 private:
  // Squared Euclidean lower bound between `query` and the cell box of
  // approximation record `index`.
  double SquaredLowerBound(const FeatureVector& query, size_t index) const;

  void ChargeApproximationScan(IoStats* stats) const;
  void ChargeVectorFetch(IoStats* stats) const;

  int dim_;
  VaFileOptions options_;
  std::vector<double> lo_, cell_width_;  // per-dimension quantization grid
  std::vector<uint8_t> approx_;          // dim_ cells per record
  std::vector<FeatureVector> points_;    // exact vectors (refinement)
  std::vector<int> ids_;
};

}  // namespace vsim

#endif  // VSIM_INDEX_VAFILE_H_
