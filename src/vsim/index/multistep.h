// Filter-and-refine query processing (Section 4.3): a lower-bounding
// filter distance (the extended-centroid distance, indexed in an
// X-tree) prunes candidates before the exact minimal matching distance
// is computed.
//
//   - Range queries follow Korn et al.: filter with eps, refine.
//     (With the centroid filter the X-tree is queried with eps / k,
//     since the indexed centroid distance is the bound divided by k.)
//   - k-NN queries follow Seidl & Kriegel's *optimal multi-step* k-NN:
//     candidates are fetched in ascending filter-distance order and the
//     algorithm stops exactly when the next filter distance exceeds the
//     current k-th exact distance. No lower-bound-respecting algorithm
//     can refine fewer candidates.
//
// A filter entry stands for every id of its member run
// (XTree::BulkLoadGroups; one id per entry otherwise): objects whose
// computed exact distance from any query is the same, such as the
// query engine's identical vector sequences. The loops refine an entry
// once, through its smallest id, and give that distance to every
// member.
//
// Answers are canonical. A k-NN answer is the k smallest (distance, id)
// pairs in that order, so ties at the k-th distance resolve to the
// smaller ids; a range answer lists every id within eps, ascending.
//
// The filter compares rounded values. Lemma 2 holds in exact
// arithmetic, so both loops widen the filter by a bound on the
// rounding error (see FilterRounding in multistep.cc): the query and
// stored centroid sums over at most filter_scale vectors (the stored
// ones declared by XTree::point_error()), the dim-term index distance,
// and the minimal matching's sum of at most filter_scale costs. With
// it the computed bound never exceeds a computed exact distance, so
// the answers equal a brute-force scan's bit for bit.
#ifndef VSIM_INDEX_MULTISTEP_H_
#define VSIM_INDEX_MULTISTEP_H_

#include <functional>

#include "vsim/features/feature_vector.h"
#include "vsim/index/io_stats.h"
#include "vsim/index/xtree.h"

namespace vsim {

// Computes the exact distance of the query to the stored object `id`,
// charging any object-fetch I/O to `stats`.
using ExactDistanceFn = std::function<double(int id, IoStats* stats)>;

// What a refinement produced: the exact distance (`exact`), or -- when
// a cheap bound already proved the exact distance greater than the
// loop's prune threshold -- a lower bound on it that is itself above
// the threshold, so the candidate cannot enter the answer either way.
struct Refinement {
  double distance = 0.0;
  bool exact = true;
};

// Refines the stored object `id`. `prune_above` is the loop's current
// threshold: the k-th best distance once k candidates are known
// (+infinity before), or eps for range queries. The function may
// return an inexact Refinement only with a distance > prune_above.
using RefineFn =
    std::function<Refinement(int id, double prune_above, IoStats* stats)>;

// Counters count filter entries: with member runs, one refinement
// stands for a whole run, so filter_hits >= candidates_refined >=
// hungarian_invocations, and candidates_refined may be below k.
struct MultiStepStats {
  size_t candidates_refined = 0;  // refine calls
  size_t filter_hits = 0;         // entries produced by the filter
  // Refinements that computed the exact distance (Kuhn-Munkres solves
  // for the minimal matching distance); the rest were ruled out by a
  // bound of the refine function (the engine's: the row-minimum, then
  // the reduction bound). Equals candidates_refined for ExactDistanceFn
  // callers.
  size_t hungarian_invocations = 0;
  // Wall time (steady clock) of the filter stage: the ranking cursor's
  // node expansions (k-NN) or the one index traversal (range). No clock
  // is read per candidate; the caller books the rest of its elapsed
  // time as refinement.
  double filter_seconds = 0.0;
};

// Optimal multi-step k-NN. `filter_index` must index a filter vector
// per object such that `filter_scale` * (Euclidean distance in the
// index) lower-bounds the exact distance in exact arithmetic (for the
// centroid filter: index the extended centroids, reference point the
// origin, of sets of at most k vectors and pass filter_scale = k).
std::vector<Neighbor> MultiStepKnn(const XTree& filter_index,
                                   const FeatureVector& filter_query,
                                   double filter_scale, int k,
                                   const RefineFn& refine,
                                   IoStats* stats = nullptr,
                                   MultiStepStats* msstats = nullptr);

// The same loop with a plain exact-distance function (never prunes).
std::vector<Neighbor> MultiStepKnn(const XTree& filter_index,
                                   const FeatureVector& filter_query,
                                   double filter_scale, int k,
                                   const ExactDistanceFn& exact_distance,
                                   IoStats* stats = nullptr,
                                   MultiStepStats* msstats = nullptr);

// Multi-step eps-range query: filter with eps / filter_scale (widened
// by the rounding bound), refine with prune threshold eps. Ids
// ascending.
std::vector<int> MultiStepRange(const XTree& filter_index,
                                const FeatureVector& filter_query,
                                double filter_scale, double eps,
                                const RefineFn& refine,
                                IoStats* stats = nullptr,
                                MultiStepStats* msstats = nullptr);

std::vector<int> MultiStepRange(const XTree& filter_index,
                                const FeatureVector& filter_query,
                                double filter_scale, double eps,
                                const ExactDistanceFn& exact_distance,
                                IoStats* stats = nullptr,
                                MultiStepStats* msstats = nullptr);

// Baselines: sequential scan over member runs, visited in `groups`
// order (the file's record order, so that a disk-backed scan reads each
// page once). Each run is refined once through its first id, and its
// distance given to all of its ids; a run of one is the per-object
// scan. The answer is canonical like MultiStepKnn's -- the k smallest
// (distance, id) pairs -- so it never depends on the visiting order.
// `scan_bytes` is the total size of the scanned records; their pages
// are charged once per query (sequential read). k <= 0 yields an empty
// answer, as in MultiStepKnn.
std::vector<Neighbor> ScanKnn(const std::vector<std::vector<int>>& groups,
                              int k, size_t scan_bytes, size_t page_size,
                              const ExactDistanceFn& exact_distance,
                              IoStats* stats = nullptr);

// Ids within `eps`, ascending.
std::vector<int> ScanRange(const std::vector<std::vector<int>>& groups,
                           double eps, size_t scan_bytes, size_t page_size,
                           const ExactDistanceFn& exact_distance,
                           IoStats* stats = nullptr);

}  // namespace vsim

#endif  // VSIM_INDEX_MULTISTEP_H_
