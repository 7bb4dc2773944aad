// End-to-end similarity pipeline: mesh parts -> voxel grid -> the four
// similarity models of the paper (volume, solid-angle, cover-sequence
// one-vector, vector set) with their distance functions.
//
// Thread-safety: CadDatabase is mutable while being built (AddObject /
// FromDataset) and must not be queried concurrently with mutation.
// Once construction finishes it is effectively immutable -- Distance()
// and the accessors are const reads over stored representations -- so
// concurrent readers need no synchronization. The serving layer
// freezes a fully built database inside an immutable DbSnapshot and
// rebuilds off-thread rather than mutating in place (see
// docs/ARCHITECTURE.md). The one mutable member -- the lazily built
// histogram-bin permutation table -- is touched only by invariant
// distances on the histogram models, which the service paths never
// call; callers that use those directly from several threads must
// first warm it with a single invariant histogram distance.
#ifndef VSIM_CORE_SIMILARITY_H_
#define VSIM_CORE_SIMILARITY_H_

#include <cstdint>
#include <vector>

#include "vsim/cluster/optics.h"
#include "vsim/common/status.h"
#include "vsim/data/dataset.h"
#include "vsim/features/cover_sequence.h"
#include "vsim/features/feature_vector.h"
#include "vsim/voxel/voxelizer.h"

namespace vsim {

// The similarity models compared in the paper's evaluation (Section 5).
enum class ModelType {
  kVolume,            // Section 3.3.1, Euclidean distance
  kSolidAngle,        // Section 3.3.2, Euclidean distance
  kCoverSequence,     // Section 3.3.3, Euclidean on the 6k-vector
  kCoverSequencePermutation,  // Definition 4 via the matching reduction
  kVectorSet,         // Section 4, minimal matching distance
};

const char* ModelTypeName(ModelType model);

struct ExtractionOptions {
  bool extract_histograms = true;  // volume + solid-angle features
  bool extract_covers = true;      // cover sequence + vector set

  // Raster resolutions (the paper: r = 30 for histogram models, r = 15
  // for the cover-based models; "optimized to the quality of the
  // evaluation results").
  int histogram_resolution = 30;
  int cover_resolution = 15;

  // Histogram partitioning: p cells per dimension => p^3 bins.
  int histogram_cells = 3;
  int solid_angle_kernel_radius = 3;

  // Number of covers k.
  int num_covers = 7;
  CoverSequenceOptions::Search cover_search =
      CoverSequenceOptions::Search::kHillClimb;

  // Grid fit (Section 3.2): anisotropic keeps per-axis scale factors.
  bool anisotropic_fit = true;

  uint64_t seed = 0x5eed;
};

// Everything extracted from one CAD object.
struct ObjectRepr {
  FeatureVector volume;        // p^3 dims
  FeatureVector solid_angle;   // p^3 dims
  CoverSequence cover_sequence;
  FeatureVector cover_vector;  // 6k dims, dummy-padded
  VectorSet vector_set;        // <= k vectors of 6 dims
  FeatureVector centroid;      // extended centroid of the vector set
  Vec3 original_extent;        // per-axis scale factors (Section 3.2)
  size_t voxel_count = 0;

  // Simulated storage footprint of the vector set (no dummies stored).
  size_t VectorSetBytes() const {
    return vector_set.size() * vector_set.dim() * sizeof(double);
  }
};

// Runs voxelization + all enabled feature extractors on one object.
StatusOr<ObjectRepr> ExtractObject(const parts::MeshParts& mesh_parts,
                                   const ExtractionOptions& options);

// Definition 2: distance minimized over the user-selected invariance
// group -- the 24 90-degree rotations, or all 48 orientations when
// reflection invariance is on. The query grid `b` is re-oriented, its
// cover sequence recomputed per orientation, and the minimum vector set
// distance to `a`'s covers returned.
StatusOr<double> InvariantVectorSetDistance(const VoxelGrid& a,
                                            const VoxelGrid& b,
                                            const ExtractionOptions& options,
                                            bool with_reflections);

// A database of extracted objects with model-indexed distances: the
// in-memory equivalent of the paper's CAD part database.
class CadDatabase {
 public:
  explicit CadDatabase(ExtractionOptions options = {})
      : options_(options) {}

  // Extracts and appends an object; returns its id.
  StatusOr<int> AddObject(const parts::MeshParts& mesh_parts, int label = -1);

  // Extracts a whole data set (object ids follow data set order).
  // Extraction is embarrassingly parallel; `num_threads` = 0 uses the
  // hardware concurrency, 1 keeps everything on the calling thread.
  // Results are identical regardless of thread count.
  static StatusOr<CadDatabase> FromDataset(const Dataset& dataset,
                                           const ExtractionOptions& options,
                                           int num_threads = 0);

  size_t size() const { return objects_.size(); }
  const ObjectRepr& object(int id) const { return objects_[id]; }
  const std::vector<int>& labels() const { return labels_; }
  const ExtractionOptions& options() const { return options_; }

  // Frees the RAM copies of every object's vector set, for disk-backed
  // serving where the authoritative copies live in a VectorSetStore and
  // keeping them here would double the resident footprint
  // (DbSnapshot::CreateDiskBacked calls this after the engine's index
  // build, which is the last consumer of the RAM copies). Setup-time
  // only: call before the database is frozen into a snapshot, never
  // while it is being served. Distance(kVectorSet) needs the sets;
  // stored-id queries (QueryService, QueryEngine::Knn by id) read the
  // query's set back from the engine's attached store.
  void ReleaseVectorSets();

  // Bytes currently held by the RAM copies of the vector sets (the
  // quantity ReleaseVectorSets drops; exported as the
  // vsim_cache_pool_resident_bytes gauge for disk-backed snapshots).
  size_t VectorSetResidentBytes() const;

  // Distance between stored objects under a model.
  double Distance(ModelType model, int a, int b) const;

  // Definition 2 at the feature level: the model distance minimized
  // over the 24 90-degree rotations of object b -- 48 orientations when
  // reflection invariance is on. Histogram features permute their bins;
  // cover features rotate positions and permute extents (Section 3.2:
  // "carrying out 48 different permutations of the query object").
  double InvariantDistance(ModelType model, int a, int b,
                           bool with_reflections) const;

  // Closures usable with OPTICS and the M-tree.
  PairwiseDistanceFn DistanceFunction(ModelType model) const;
  PairwiseDistanceFn InvariantDistanceFunction(ModelType model,
                                               bool with_reflections) const;

  // Persistence: a versioned little-endian binary format carrying the
  // extraction options, labels and all per-object representations --
  // re-extraction (voxelization + cover search) is the expensive part
  // of the pipeline and never needs to be repeated for a saved
  // database. Implemented in serialization.cc.
  Status Save(const std::string& path) const;
  static StatusOr<CadDatabase> Load(const std::string& path);

 private:
  void EnsureOrientationTables() const;

  ExtractionOptions options_;
  std::vector<ObjectRepr> objects_;
  std::vector<int> labels_;
  // Lazily built histogram bin permutations, one per group element of
  // CubeRotationsWithReflections() (rotations occupy the first 24).
  mutable std::vector<std::vector<int>> bin_permutations_;
};

}  // namespace vsim

#endif  // VSIM_CORE_SIMILARITY_H_
