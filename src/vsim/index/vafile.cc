#include "vsim/index/vafile.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace vsim {

VaFile::VaFile(int dim, VaFileOptions options)
    : dim_(dim), options_(options) {}

Status VaFile::Build(const std::vector<FeatureVector>& points,
                     const std::vector<int>& ids) {
  if (points.size() != ids.size()) {
    return Status::InvalidArgument("points/ids size mismatch");
  }
  if (options_.bits_per_dim < 1 || options_.bits_per_dim > 8) {
    return Status::InvalidArgument("bits_per_dim must be in [1, 8]");
  }
  for (const FeatureVector& p : points) {
    if (static_cast<int>(p.size()) != dim_) {
      return Status::InvalidArgument("point dimensionality mismatch");
    }
  }
  points_ = points;
  ids_ = ids;
  approx_.assign(points.size() * static_cast<size_t>(dim_), 0);
  lo_.assign(dim_, 0.0);
  cell_width_.assign(dim_, 1.0);
  if (points.empty()) return Status::OK();

  const int cells = 1 << options_.bits_per_dim;
  for (int d = 0; d < dim_; ++d) {
    double lo = points[0][d], hi = points[0][d];
    for (const FeatureVector& p : points) {
      lo = std::min(lo, p[d]);
      hi = std::max(hi, p[d]);
    }
    lo_[d] = lo;
    cell_width_[d] = (hi - lo) / cells;
    if (cell_width_[d] <= 0.0) cell_width_[d] = 1.0;  // degenerate dim
  }
  for (size_t i = 0; i < points.size(); ++i) {
    for (int d = 0; d < dim_; ++d) {
      int cell = static_cast<int>((points[i][d] - lo_[d]) / cell_width_[d]);
      cell = std::min(std::max(cell, 0), cells - 1);
      approx_[i * dim_ + d] = static_cast<uint8_t>(cell);
    }
  }
  return Status::OK();
}

size_t VaFile::ApproximationBytes() const {
  // bits_per_dim bits per dimension per record (rounded up per record).
  const size_t bits = static_cast<size_t>(dim_) * options_.bits_per_dim;
  return ids_.size() * ((bits + 7) / 8);
}

double VaFile::SquaredLowerBound(const FeatureVector& query,
                                 size_t index) const {
  double sum = 0.0;
  const uint8_t* cells = &approx_[index * dim_];
  for (int d = 0; d < dim_; ++d) {
    const double cell_lo = lo_[d] + cells[d] * cell_width_[d];
    const double cell_hi = cell_lo + cell_width_[d];
    double delta = 0.0;
    if (query[d] < cell_lo) {
      delta = cell_lo - query[d];
    } else if (query[d] > cell_hi) {
      delta = query[d] - cell_hi;
    }
    sum += delta * delta;
  }
  return sum;
}

void VaFile::ChargeApproximationScan(IoStats* stats) const {
  if (stats == nullptr) return;
  const size_t bytes = ApproximationBytes();
  stats->AddPageAccesses(
      std::max<size_t>(1, (bytes + options_.page_size_bytes - 1) /
                              options_.page_size_bytes));
  stats->AddBytesRead(bytes);
}

void VaFile::ChargeVectorFetch(IoStats* stats) const {
  if (stats == nullptr) return;
  stats->AddPageAccesses(1);
  stats->AddBytesRead(static_cast<size_t>(dim_) * sizeof(double));
}

std::vector<int> VaFile::RangeQuery(const FeatureVector& query, double eps,
                                    IoStats* stats, size_t* refined) const {
  ChargeApproximationScan(stats);
  std::vector<int> result;
  size_t fetched = 0;
  const double eps2 = eps * eps;
  for (size_t i = 0; i < ids_.size(); ++i) {
    if (SquaredLowerBound(query, i) > eps2) continue;
    ChargeVectorFetch(stats);
    ++fetched;
    double exact = 0.0;
    for (int d = 0; d < dim_; ++d) {
      const double diff = query[d] - points_[i][d];
      exact += diff * diff;
    }
    if (exact <= eps2) result.push_back(ids_[i]);
  }
  if (refined != nullptr) *refined = fetched;
  return result;
}

namespace {

struct VaCandidate {
  double lower_bound;
  size_t index;
  bool operator<(const VaCandidate& o) const {
    return lower_bound < o.lower_bound;
  }
};

}  // namespace

std::vector<Neighbor> VaFile::MultiStepKnn(const FeatureVector& query,
                                           double filter_scale, int k,
                                           const ExactDistanceFn& exact,
                                           IoStats* stats,
                                           size_t* refined) const {
  if (k <= 0) {
    if (refined != nullptr) *refined = 0;
    return {};
  }
  ChargeApproximationScan(stats);
  std::vector<VaCandidate> candidates(ids_.size());
  for (size_t i = 0; i < ids_.size(); ++i) {
    candidates[i] = {filter_scale * std::sqrt(SquaredLowerBound(query, i)), i};
  }
  std::sort(candidates.begin(), candidates.end());

  std::vector<Neighbor> best;  // max-heap on distance
  auto cmp = [](const Neighbor& a, const Neighbor& b) {
    return a.distance < b.distance;
  };
  size_t fetched = 0;
  for (const VaCandidate& cand : candidates) {
    if (static_cast<int>(best.size()) == k &&
        cand.lower_bound > best.front().distance) {
      break;  // optimal stopping
    }
    const double d = exact(ids_[cand.index], stats);
    ++fetched;
    if (static_cast<int>(best.size()) < k) {
      best.push_back({ids_[cand.index], d});
      std::push_heap(best.begin(), best.end(), cmp);
    } else if (d < best.front().distance) {
      std::pop_heap(best.begin(), best.end(), cmp);
      best.back() = {ids_[cand.index], d};
      std::push_heap(best.begin(), best.end(), cmp);
    }
  }
  std::sort_heap(best.begin(), best.end(), cmp);
  if (refined != nullptr) *refined = fetched;
  return best;
}

std::vector<int> VaFile::MultiStepRange(const FeatureVector& query,
                                        double filter_scale, double eps,
                                        const ExactDistanceFn& exact,
                                        IoStats* stats,
                                        size_t* refined) const {
  ChargeApproximationScan(stats);
  std::vector<int> result;
  size_t fetched = 0;
  for (size_t i = 0; i < ids_.size(); ++i) {
    const double bound =
        filter_scale * std::sqrt(SquaredLowerBound(query, i));
    if (bound > eps) continue;
    const double d = exact(ids_[i], stats);
    ++fetched;
    if (d <= eps) result.push_back(ids_[i]);
  }
  if (refined != nullptr) *refined = fetched;
  return result;
}

std::vector<Neighbor> VaFile::KnnQuery(const FeatureVector& query, int k,
                                       IoStats* stats,
                                       size_t* refined) const {
  // Exact Euclidean k-NN on the stored vectors: refinement fetches the
  // vector and computes the distance directly.
  auto exact = [this, &query](int id, IoStats* s) {
    ChargeVectorFetch(s);
    // ids are unique positions; find the record (ids_ is typically the
    // identity permutation, so try the direct slot first).
    size_t index = 0;
    if (id >= 0 && static_cast<size_t>(id) < ids_.size() &&
        ids_[id] == id) {
      index = static_cast<size_t>(id);
    } else {
      index = static_cast<size_t>(
          std::find(ids_.begin(), ids_.end(), id) - ids_.begin());
    }
    double sum = 0.0;
    for (int d = 0; d < dim_; ++d) {
      const double diff = query[d] - points_[index][d];
      sum += diff * diff;
    }
    return std::sqrt(sum);
  };
  // Reuse the multi-step machinery with scale 1 (the VA bound is a true
  // Euclidean lower bound). The approximation scan is charged inside.
  IoStats local;
  std::vector<Neighbor> result =
      MultiStepKnn(query, 1.0, k, exact, stats == nullptr ? &local : stats,
                   refined);
  return result;
}

}  // namespace vsim
