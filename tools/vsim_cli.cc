// vsim command-line tool: the end-to-end workflow of the paper's system
// as a utility a CAD data manager could actually run.
//
//   vsim generate --dataset car --count 200 --out parts/
//       writes every part as OBJ files plus a labels.csv manifest
//   vsim build --in parts/ --db parts.vsimdb [--covers 7] [--resolution 15]
//       voxelizes + extracts all similarity models, saves the database
//   vsim info --db parts.vsimdb
//   vsim query --db parts.vsimdb --id 17 [--k 10] [--strategy filter]
//   vsim query --db parts.vsimdb --mesh new_part.stl [--invariant]
//       k-NN with an external OBJ/STL part as the query
//   vsim classify --db parts.vsimdb [--k 1] [--invariant]
//       leave-one-out k-NN classification accuracy per model
//   vsim optics --db parts.vsimdb [--model vector-set] [--invariant]
//       prints the reachability plot (and CSV with --csv FILE); with
//       --eps E and the vector-set model, neighborhoods are served by
//       the extended-centroid filter index
//   vsim batch --db parts.vsimdb --queries 500 --threads 8 --cache-mb 32
//       drives the concurrent QueryService with a mixed k-NN/range
//       workload (--repeat-frac F re-issues earlier queries to hit the
//       result cache) and prints the serving stats table;
//       --watch-rebuild N additionally performs N online snapshot swaps
//       (background index rebuilds) spread across the workload
//   vsim reindex --dataset car --count 200 --queries 800 --swaps 3
//                [--covers K2] [--resolution R2] [--out new.vsimdb]
//       online reindex demonstration: serves a concurrent workload
//       while a background Rebuilder re-extracts the data set with the
//       new parameters (or rebuilds the indexes when none are given)
//       and atomically swaps each snapshot in; verifies no response
//       crossed generations and prints per-generation counts
//   vsim serve --db parts.vsimdb --port 4780
//       TCP server speaking the versioned wire protocol
//       (docs/PROTOCOL.md) over the same QueryService the batch
//       command drives in-process; stops on SIGINT/SIGTERM (graceful
//       drain) or after --duration-s
//   vsim remote-query --port 4780 --id 17 [--k 10] [--kind knn]
//   vsim remote-query --port 4780 --mesh new_part.stl [--invariant]
//       remote twin of `vsim query`: external meshes are extracted
//       locally with the server's own extraction options (fetched via
//       the info RPC) so results match a server-side query exactly
//
// Exit codes (tools/README.md): 0 success, 1 runtime failure,
// 2 usage error (unknown command/flag, malformed flag values).
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "vsim/cluster/cluster_quality.h"
#include "vsim/cluster/optics.h"
#include "vsim/common/rng.h"
#include "vsim/common/stopwatch.h"
#include "vsim/common/thread_annotations.h"
#include "vsim/core/query_engine.h"
#include "vsim/core/similarity.h"
#include "vsim/data/dataset.h"
#include "vsim/geometry/mesh_io.h"
#include "vsim/net/client.h"
#include "vsim/net/server.h"
#include "vsim/obs/profiler.h"
#include "vsim/obs/trace_export.h"
#include "vsim/service/query_service.h"
#include "vsim/service/rebuilder.h"
#include "vsim/service/request_parse.h"

namespace vsim {
namespace {

namespace fs = std::filesystem;

// --- tiny flag parser ---------------------------------------------------

class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 0; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) continue;
      arg = arg.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[arg] = argv[++i];
      } else {
        values_[arg] = "1";  // boolean flag
      }
    }
  }

  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  int GetInt(const std::string& key, int fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atoi(it->second.c_str());
  }
  double GetDouble(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atof(it->second.c_str());
  }
  bool Has(const std::string& key) const { return values_.count(key) > 0; }

  // Rejects flags the subcommand does not understand, listing the valid
  // ones (typo'd flags silently falling back to defaults is the classic
  // way to benchmark the wrong configuration).
  Status CheckKnown(const std::string& command,
                    std::initializer_list<const char*> allowed) const {
    for (const auto& [key, value] : values_) {
      bool known = false;
      for (const char* a : allowed) known |= key == a;
      if (!known) {
        std::string valid;
        for (const char* a : allowed) {
          valid += valid.empty() ? "--" : " --";
          valid += a;
        }
        return Status::InvalidArgument("unknown flag --" + key + " for '" +
                                       command + "' (valid: " + valid + ")");
      }
    }
    return Status::OK();
  }

 private:
  std::map<std::string, std::string> values_;
};

// Runtime failure (I/O, bad data, server-side errors): exit 1.
int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

// Usage error (malformed or out-of-domain flag values): exit 2, the
// same code unknown flags and missing required flags use, so scripts
// can tell "you invoked it wrong" from "it ran and failed".
int UsageFail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 2;
}

// Usage errors (unknown flags) exit 2, like missing required flags.
#define VSIM_CLI_CHECK_FLAGS(flags, command, ...)                   \
  do {                                                              \
    const ::vsim::Status _flag_st =                                 \
        (flags).CheckKnown((command), __VA_ARGS__);                 \
    if (!_flag_st.ok()) {                                           \
      std::fprintf(stderr, "error: %s\n", _flag_st.ToString().c_str()); \
      return 2;                                                     \
    }                                                               \
  } while (false)

// --- generate -------------------------------------------------------------

int CmdGenerate(const Flags& flags) {
  VSIM_CLI_CHECK_FLAGS(flags, "generate",
                       {"dataset", "count", "out", "seed", "poses"});
  const std::string which = flags.Get("dataset", "car");
  const size_t count = static_cast<size_t>(flags.GetInt("count", 200));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const std::string out = flags.Get("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "usage: vsim generate --dataset car|aircraft "
                         "--count N --out DIR [--seed S] [--poses]\n");
    return 2;
  }
  Dataset ds = which == "aircraft" ? MakeAircraftDataset(count, seed)
                                   : MakeCarDataset(count, seed);
  if (flags.Has("poses")) ApplyRandomOrientations(&ds, seed ^ 0xabcd, true);

  std::error_code ec;
  fs::create_directories(out, ec);
  std::ofstream manifest(out + "/labels.csv");
  manifest << "object,class,label,parts\n";
  for (size_t i = 0; i < ds.size(); ++i) {
    const CadObject& obj = ds.objects[i];
    char name[64];
    for (size_t p = 0; p < obj.parts.size(); ++p) {
      std::snprintf(name, sizeof(name), "obj%05zu_p%zu.obj", i, p);
      const Status st = SaveObj(obj.parts[p], out + "/" + name);
      if (!st.ok()) return Fail(st);
    }
    std::snprintf(name, sizeof(name), "obj%05zu", i);
    manifest << name << ',' << obj.class_name << ',' << obj.label << ','
             << obj.parts.size() << '\n';
  }
  std::printf("wrote %zu objects (%s data set) to %s\n", ds.size(),
              ds.name.c_str(), out.c_str());
  return 0;
}

// --- build ------------------------------------------------------------

int CmdBuild(const Flags& flags) {
  VSIM_CLI_CHECK_FLAGS(flags, "build",
                       {"in", "db", "covers", "resolution", "cells",
                        "cover-search", "threads"});
  const std::string in = flags.Get("in", "");
  const std::string db_path = flags.Get("db", "");
  if (in.empty() || db_path.empty()) {
    std::fprintf(stderr, "usage: vsim build --in DIR --db FILE "
                         "[--covers K] [--resolution R] [--cells P] "
                         "[--cover-search hillclimb|exhaustive|beam] "
                         "[--threads T]\n");
    return 2;
  }
  ExtractionOptions opt;
  opt.num_covers = flags.GetInt("covers", opt.num_covers);
  opt.cover_resolution = flags.GetInt("resolution", opt.cover_resolution);
  opt.histogram_cells = flags.GetInt("cells", opt.histogram_cells);
  if (flags.Has("cover-search")) {
    StatusOr<CoverSequenceOptions::Search> search =
        ParseCoverSearch(flags.Get("cover-search", ""));
    if (!search.ok()) return UsageFail(search.status());
    opt.cover_search = search.value();
  }

  // Read the manifest if present; otherwise treat every mesh file as a
  // one-part object with unknown label.
  struct Entry {
    std::string object;
    int label = -1;
    int parts = 1;
  };
  std::vector<Entry> entries;
  std::ifstream manifest(in + "/labels.csv");
  if (manifest) {
    std::string line;
    std::getline(manifest, line);  // header
    while (std::getline(manifest, line)) {
      Entry e;
      // object,class,label,parts
      const size_t c1 = line.find(',');
      const size_t c2 = line.find(',', c1 + 1);
      const size_t c3 = line.find(',', c2 + 1);
      if (c1 == std::string::npos || c2 == std::string::npos ||
          c3 == std::string::npos) {
        continue;
      }
      e.object = line.substr(0, c1);
      e.label = std::atoi(line.substr(c2 + 1, c3 - c2 - 1).c_str());
      e.parts = std::atoi(line.substr(c3 + 1).c_str());
      entries.push_back(std::move(e));
    }
  } else {
    for (const auto& file : fs::directory_iterator(in)) {
      const std::string ext = file.path().extension().string();
      if (ext == ".obj" || ext == ".stl") {
        entries.push_back({file.path().stem().string(), -1, 0});
      }
    }
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) { return a.object < b.object; });
  }

  // Load all meshes up front, then hand the whole set to the parallel
  // extraction pipeline (--threads T; 0 = hardware concurrency).
  Stopwatch watch;
  Dataset ds;
  ds.name = in;
  for (const Entry& e : entries) {
    parts::MeshParts meshes;
    if (e.parts == 0) {
      // Single file named exactly by the stem.
      for (const char* ext : {".obj", ".stl"}) {
        const std::string path = in + "/" + e.object + ext;
        if (fs::exists(path)) {
          StatusOr<TriangleMesh> mesh = LoadMesh(path);
          if (!mesh.ok()) return Fail(mesh.status());
          // STL facets carry triplicated vertices; weld to restore the
          // shared topology before voxelization.
          meshes.push_back(WeldVertices(*mesh));
          break;
        }
      }
    } else {
      for (int p = 0; p < e.parts; ++p) {
        const std::string path =
            in + "/" + e.object + "_p" + std::to_string(p) + ".obj";
        StatusOr<TriangleMesh> mesh = LoadMesh(path);
        if (!mesh.ok()) return Fail(mesh.status());
        meshes.push_back(std::move(mesh).value());
      }
    }
    if (meshes.empty()) {
      std::fprintf(stderr, "warning: no mesh files for %s, skipping\n",
                   e.object.c_str());
      continue;
    }
    CadObject obj;
    obj.label = e.label;
    obj.parts = std::move(meshes);
    ds.objects.push_back(std::move(obj));
  }
  StatusOr<CadDatabase> db =
      CadDatabase::FromDataset(ds, opt, flags.GetInt("threads", 0));
  if (!db.ok()) return Fail(db.status());
  const Status st = db->Save(db_path);
  if (!st.ok()) return Fail(st);
  std::printf("extracted %zu objects in %.1f s -> %s\n", db->size(),
              watch.ElapsedSeconds(), db_path.c_str());
  return 0;
}

// --- info / query / optics ---------------------------------------------

StatusOr<CadDatabase> OpenDb(const Flags& flags) {
  const std::string path = flags.Get("db", "");
  if (path.empty()) {
    return Status::InvalidArgument("--db FILE is required");
  }
  return CadDatabase::Load(path);
}

int CmdInfo(const Flags& flags) {
  VSIM_CLI_CHECK_FLAGS(flags, "info", {"db"});
  StatusOr<CadDatabase> db = OpenDb(flags);
  if (!db.ok()) return Fail(db.status());
  const ExtractionOptions& opt = db->options();
  std::printf("objects:        %zu\n", db->size());
  std::printf("covers (k):     %d @ r=%d\n", opt.num_covers,
              opt.cover_resolution);
  std::printf("histograms:     %s (p=%d @ r=%d)\n",
              opt.extract_histograms ? "yes" : "no", opt.histogram_cells,
              opt.histogram_resolution);
  size_t covers = 0, bytes = 0;
  std::map<int, size_t> label_counts;
  for (size_t i = 0; i < db->size(); ++i) {
    covers += db->object(static_cast<int>(i)).vector_set.size();
    bytes += db->object(static_cast<int>(i)).VectorSetBytes();
    ++label_counts[db->labels()[i]];
  }
  std::printf("mean covers:    %.2f (vector set payload %zu bytes total)\n",
              db->size() ? static_cast<double>(covers) / db->size() : 0.0,
              bytes);
  std::printf("labels:         %zu distinct\n", label_counts.size());
  return 0;
}

int CmdQuery(const Flags& flags) {
  VSIM_CLI_CHECK_FLAGS(flags, "query",
                       {"db", "id", "mesh", "k", "strategy", "invariant"});
  StatusOr<CadDatabase> db = OpenDb(flags);
  if (!db.ok()) return Fail(db.status());
  QueryOptions options;
  options.k = flags.GetInt("k", 10);
  const Status valid = ValidateQueryOptions(QueryKind::kKnn, options);
  if (!valid.ok()) return UsageFail(valid);
  const int k = options.k;
  StatusOr<QueryStrategy> strategy_or =
      ParseQueryStrategy(flags.Get("strategy", "filter"));
  if (!strategy_or.ok()) return UsageFail(strategy_or.status());
  const QueryStrategy strategy = strategy_or.value();

  QueryEngine engine(&*db);
  QueryCost cost;
  std::vector<Neighbor> result;
  std::string query_desc;
  const std::string mesh_path = flags.Get("mesh", "");
  if (!mesh_path.empty()) {
    // Query with an external part: load, weld, extract with the
    // database's own options, then search (optionally pose-invariant).
    StatusOr<TriangleMesh> mesh = LoadMesh(mesh_path);
    if (!mesh.ok()) return Fail(mesh.status());
    StatusOr<ObjectRepr> repr =
        ExtractObject({WeldVertices(*mesh)}, db->options());
    if (!repr.ok()) return Fail(repr.status());
    if (flags.Has("invariant")) {
      result = engine.InvariantKnn(strategy, *repr, k, true, &cost);
    } else {
      result = engine.Knn(strategy, *repr, k, &cost);
    }
    query_desc = mesh_path;
  } else {
    const int id = flags.GetInt("id", 0);
    if (id < 0 || id >= static_cast<int>(db->size())) {
      return Fail(Status::OutOfRange("--id out of range"));
    }
    if (flags.Has("invariant")) {
      result = engine.InvariantKnn(strategy, db->object(id), k, true, &cost);
    } else {
      result = engine.Knn(strategy, id, k, &cost);
    }
    query_desc = "object " + std::to_string(id);
  }
  std::printf("%d-NN of %s (%s%s):\n", k, query_desc.c_str(),
              QueryStrategyName(strategy),
              flags.Has("invariant") ? ", pose-invariant" : "");
  for (const Neighbor& n : result) {
    std::printf("  %6d  distance %.4f  label %d\n", n.id, n.distance,
                db->labels()[n.id]);
  }
  std::printf("cost: %.2f ms CPU, %zu pages / %zu bytes simulated I/O "
              "(%.2f s), %zu exact distances\n",
              1e3 * cost.cpu_seconds, cost.io.page_accesses(),
              cost.io.bytes_read(), cost.IoSeconds(),
              cost.candidates_refined);
  return 0;
}

// Leave-one-out k-NN classification accuracy per model; needs labels in
// the database (vsim build with a labels.csv manifest).
int CmdClassify(const Flags& flags) {
  VSIM_CLI_CHECK_FLAGS(flags, "classify", {"db", "k", "invariant"});
  StatusOr<CadDatabase> db = OpenDb(flags);
  if (!db.ok()) return Fail(db.status());
  QueryOptions options;
  options.k = flags.GetInt("k", 1);
  const Status valid = ValidateQueryOptions(QueryKind::kKnn, options);
  if (!valid.ok()) return UsageFail(valid);
  const int k = options.k;
  bool labeled = false;
  for (int label : db->labels()) labeled |= label >= 0;
  if (!labeled) {
    return Fail(Status::FailedPrecondition(
        "database has no labels; rebuild with a labels.csv manifest"));
  }
  std::printf("leave-one-out %d-NN classification accuracy (%zu objects):\n",
              k, db->size());
  for (ModelType model : {ModelType::kVolume, ModelType::kSolidAngle,
                          ModelType::kCoverSequence, ModelType::kVectorSet}) {
    const PairwiseDistanceFn fn =
        flags.Has("invariant") ? db->InvariantDistanceFunction(model, true)
                               : db->DistanceFunction(model);
    const double acc = LeaveOneOutKnnAccuracy(static_cast<int>(db->size()),
                                              fn, db->labels(), k);
    std::printf("  %-28s %.1f%%\n", ModelTypeName(model), 100 * acc);
  }
  return 0;
}

int CmdOptics(const Flags& flags) {
  VSIM_CLI_CHECK_FLAGS(flags, "optics",
                       {"db", "model", "invariant", "minpts", "eps", "csv"});
  StatusOr<CadDatabase> db = OpenDb(flags);
  if (!db.ok()) return Fail(db.status());
  StatusOr<ModelType> model_or =
      ParseModelType(flags.Get("model", "vector-set"));
  if (!model_or.ok()) return UsageFail(model_or.status());
  const ModelType model = model_or.value();
  OpticsOptions opt;
  opt.min_pts = flags.GetInt("minpts", 4);
  const PairwiseDistanceFn fn =
      flags.Has("invariant") ? db->InvariantDistanceFunction(model, true)
                             : db->DistanceFunction(model);
  StatusOr<OpticsResult> result = Status::Internal("unset");
  if (flags.Has("eps") && model == ModelType::kVectorSet &&
      !flags.Has("invariant")) {
    // Finite generating eps: serve neighborhoods from the filter index.
    opt.eps = std::atof(flags.Get("eps", "0").c_str());
    QueryEngine engine(&*db);
    result = RunOpticsIndexed(
        static_cast<int>(db->size()),
        [&](int id, double radius) {
          return engine.Range(QueryStrategy::kVectorSetFilter,
                              db->object(id), radius);
        },
        fn, opt);
  } else {
    if (flags.Has("eps")) {
      opt.eps = std::atof(flags.Get("eps", "0").c_str());
    }
    result = RunOptics(static_cast<int>(db->size()), fn, opt);
  }
  if (!result.ok()) return Fail(result.status());
  std::printf("%s", ReachabilityAscii(*result, 12, 110).c_str());
  const std::string csv = flags.Get("csv", "");
  if (!csv.empty()) {
    std::ofstream out(csv);
    out << ReachabilityCsv(*result, -1.0);
    std::printf("reachability series written to %s\n", csv.c_str());
  }
  return 0;
}

// --- batch ------------------------------------------------------------

// Drives the concurrent QueryService with a deterministic mixed
// workload (k-NN / range / pose-invariant k-NN; a --repeat-frac
// fraction re-issues earlier queries to exercise the result cache) and
// prints the service's stats table plus throughput.
int CmdBatch(const Flags& flags) {
  VSIM_CLI_CHECK_FLAGS(flags, "batch",
                       {"db", "dataset", "count", "queries", "threads",
                        "cache-mb", "repeat-frac", "k", "strategy", "seed",
                        "timeout-ms", "max-queue", "simulate-io",
                        "io-page-us", "watch-rebuild"});
  const int queries = flags.GetInt("queries", 500);
  const int threads = flags.GetInt("threads", 0);
  const int cache_mb = flags.GetInt("cache-mb", 32);
  const double repeat_frac = flags.GetDouble("repeat-frac", 0.5);
  const int k = flags.GetInt("k", 10);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));

  if (repeat_frac < 0.0 || repeat_frac > 1.0) {
    return UsageFail(
        Status::InvalidArgument("--repeat-frac must be in [0, 1]"));
  }

  StatusOr<QueryStrategy> strategy_or =
      ParseQueryStrategy(flags.Get("strategy", "filter"));
  if (!strategy_or.ok()) return UsageFail(strategy_or.status());
  const QueryStrategy strategy = strategy_or.value();

  // Database: --db FILE, or a synthetic data set built in memory
  // (--dataset car|aircraft --count N).
  StatusOr<CadDatabase> db = Status::Internal("unset");
  if (flags.Has("db")) {
    db = CadDatabase::Load(flags.Get("db", ""));
  } else {
    const std::string dataset = flags.Get("dataset", "car");
    if (dataset != "car" && dataset != "aircraft") {
      return UsageFail(Status::InvalidArgument(
          "unknown --dataset '" + dataset + "' (valid: car aircraft)"));
    }
    const size_t count = static_cast<size_t>(flags.GetInt("count", 200));
    ExtractionOptions opt;
    opt.extract_histograms = false;
    Dataset ds = dataset == "aircraft" ? MakeAircraftDataset(count, seed)
                                       : MakeCarDataset(count, seed);
    std::printf("extracting %zu synthetic objects...\n", ds.size());
    db = CadDatabase::FromDataset(ds, opt, threads);
  }
  if (!db.ok()) return Fail(db.status());
  if (db->size() == 0) return Fail(Status::FailedPrecondition("empty database"));

  const size_t db_size = db->size();
  QueryServiceOptions sopts;
  sopts.num_threads = threads;
  sopts.cache_bytes = static_cast<size_t>(cache_mb) << 20;
  sopts.max_queue = static_cast<size_t>(flags.GetInt("max-queue", 4096));
  // --simulate-io: workers sleep each query's simulated I/O charge
  // (--io-page-us per page, default NVMe-ish 100 us), so latency and
  // concurrency behave like a disk-backed deployment.
  sopts.simulate_io_wait = flags.Has("simulate-io");
  sopts.io_params.seconds_per_page_access =
      flags.GetDouble("io-page-us", 100.0) * 1e-6;
  sopts.io_params.seconds_per_byte = 0.0;
  // The snapshot owns the database + engine so --watch-rebuild can swap
  // in rebuilt ones mid-workload.
  QueryService service(DbSnapshot::Create(std::move(db).value(), 0), sopts);

  // eps for the range slice of the mix: the 10-NN radius of object 0,
  // so ranges return a sensible handful of parts.
  double base_eps = 1.0;
  {
    const std::vector<Neighbor> nn =
        service.snapshot()->engine().Knn(QueryStrategy::kVectorSetScan, 0, 10);
    if (!nn.empty()) base_eps = std::max(nn.back().distance, 1e-6);
  }

  // --watch-rebuild N: a background Rebuilder copies the current
  // database and rebuilds its indexes N times during the workload, each
  // publish an atomic snapshot swap observed by the admission path.
  const int rebuilds = flags.GetInt("watch-rebuild", 0);
  Rebuilder rebuilder(&service, [&service]() -> StatusOr<CadDatabase> {
    return CadDatabase(service.snapshot()->db());
  });
  std::vector<std::future<Status>> rebuild_done;
  const int rebuild_every =
      rebuilds > 0 ? std::max(1, queries / (rebuilds + 1)) : 0;

  Rng rng(seed ^ 0xba7c4ULL);
  std::vector<ServiceRequest> history;
  const double timeout_s = flags.GetDouble("timeout-ms", 0.0) * 1e-3;
  // Completions arrive on the service's workers. The callbacks share
  // the tally, so it outlives the last of them.
  struct Tally {
    std::atomic<size_t> errors{0};
    std::atomic<size_t> done{0};
  };
  const auto tally = std::make_shared<Tally>();
  size_t admitted = 0;

  Stopwatch watch;
  for (int q = 0; q < queries; ++q) {
    if (rebuild_every > 0 && q > 0 && q % rebuild_every == 0 &&
        static_cast<int>(rebuild_done.size()) < rebuilds) {
      rebuild_done.push_back(rebuilder.Trigger());
    }
    ServiceRequest req;
    if (!history.empty() && rng.NextDouble() < repeat_frac) {
      req = history[rng.NextBounded(history.size())];
    } else {
      req.object_id = static_cast<int>(rng.NextBounded(db_size));
      req.strategy = strategy;
      req.options.k = k;
      const double roll = rng.NextDouble();
      if (roll < 0.80) {
        req.kind = QueryKind::kKnn;
      } else if (roll < 0.95) {
        req.kind = QueryKind::kRange;
        req.options.eps = base_eps * (0.5 + rng.NextDouble());
      } else {
        req.kind = QueryKind::kInvariantKnn;
      }
      history.push_back(req);
    }
    req.options.timeout_seconds = timeout_s;
    const Status submitted = service.SubmitWithCallback(
        std::move(req), [tally](StatusOr<ServiceResponse> response) {
          if (!response.ok()) {
            tally->errors.fetch_add(1, std::memory_order_relaxed);
          }
          tally->done.fetch_add(1, std::memory_order_release);
          tally->done.notify_one();
        });
    if (submitted.ok()) ++admitted;
    // Rejections are counted by the service's stats.
  }
  for (size_t done = tally->done.load(std::memory_order_acquire);
       done < admitted; done = tally->done.load(std::memory_order_acquire)) {
    tally->done.wait(done, std::memory_order_acquire);
  }
  const size_t errors = tally->errors.load(std::memory_order_relaxed);
  const size_t ok = admitted - errors;
  const double elapsed = watch.ElapsedSeconds();

  for (auto& f : rebuild_done) {
    const Status st = f.get();
    if (!st.ok()) {
      std::fprintf(stderr, "warning: rebuild failed: %s\n",
                   st.ToString().c_str());
    }
  }

  std::printf("batch: %d requests (%zu completed, %zu errored) on %d "
              "worker threads in %.2f s -> %.0f queries/s\n",
              queries, ok, errors, service.num_threads(), elapsed,
              elapsed > 0 ? static_cast<double>(ok) / elapsed : 0.0);
  if (rebuilds > 0) {
    const Rebuilder::Stats rstats = rebuilder.stats();
    std::printf("rebuilds: %llu published, %llu failed, last build "
                "%.2f s; final generation %llu\n",
                static_cast<unsigned long long>(rstats.published),
                static_cast<unsigned long long>(rstats.failed),
                rstats.last_build_seconds,
                static_cast<unsigned long long>(service.generation()));
  }
  service.PrintStats();
  return 0;
}

// --- reindex ----------------------------------------------------------

// Online reindex demonstration: serves a concurrent k-NN workload while
// a background Rebuilder constructs --swaps fresh snapshots (with the
// new --covers/--resolution when given, otherwise an index-only
// rebuild) and atomically publishes each one. Every response is checked
// against the snapshot-consistency contract: its generation must lie in
// the window [generation at admission, generation at completion].
int CmdReindex(const Flags& flags) {
  VSIM_CLI_CHECK_FLAGS(flags, "reindex",
                       {"db", "dataset", "count", "queries", "threads",
                        "cache-mb", "k", "seed", "swaps", "covers",
                        "resolution", "out"});
  const int queries = flags.GetInt("queries", 800);
  const int threads = flags.GetInt("threads", 0);
  const int k = flags.GetInt("k", 10);
  const int swaps = flags.GetInt("swaps", 3);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  if (swaps < 1) {
    return UsageFail(Status::InvalidArgument("--swaps must be >= 1"));
  }

  // Initial database: --db FILE, or a synthetic data set. The synthetic
  // path retains the Dataset so rebuilds can re-extract with different
  // parameters; the --db path is restricted to index-only rebuilds
  // (saved databases carry representations, not meshes).
  StatusOr<CadDatabase> db = Status::Internal("unset");
  Dataset ds;
  bool have_dataset = false;
  if (flags.Has("db")) {
    db = CadDatabase::Load(flags.Get("db", ""));
  } else {
    const std::string dataset = flags.Get("dataset", "car");
    if (dataset != "car" && dataset != "aircraft") {
      return UsageFail(Status::InvalidArgument(
          "unknown --dataset '" + dataset + "' (valid: car aircraft)"));
    }
    const size_t count = static_cast<size_t>(flags.GetInt("count", 200));
    ds = dataset == "aircraft" ? MakeAircraftDataset(count, seed)
                               : MakeCarDataset(count, seed);
    ExtractionOptions opt;
    opt.extract_histograms = false;
    std::printf("extracting %zu synthetic objects...\n", ds.size());
    db = CadDatabase::FromDataset(ds, opt, threads);
    have_dataset = true;
  }
  if (!db.ok()) return Fail(db.status());
  if (db->size() == 0) {
    return Fail(Status::FailedPrecondition("empty database"));
  }
  const size_t db_size = db->size();

  ExtractionOptions rebuild_opt = db->options();
  const bool reextract =
      flags.Has("covers") || flags.Has("resolution");
  rebuild_opt.num_covers = flags.GetInt("covers", rebuild_opt.num_covers);
  rebuild_opt.cover_resolution =
      flags.GetInt("resolution", rebuild_opt.cover_resolution);
  if (reextract && !have_dataset) {
    return UsageFail(Status::FailedPrecondition(
        "--covers/--resolution need the original meshes; use --dataset "
        "(a saved --db carries extracted representations only)"));
  }

  QueryServiceOptions sopts;
  sopts.num_threads = threads;
  sopts.cache_bytes = static_cast<size_t>(flags.GetInt("cache-mb", 32)) << 20;
  QueryService service(DbSnapshot::Create(std::move(db).value(), 0), sopts);
  Rebuilder rebuilder(
      &service, [&]() -> StatusOr<CadDatabase> {
        if (reextract) {
          return CadDatabase::FromDataset(ds, rebuild_opt, threads);
        }
        return CadDatabase(service.snapshot()->db());
      });

  // Client fan-out: 8 closed-loop clients issue k-NN queries and check
  // the generation window invariant on every response. They keep
  // serving until every swap has been published AND at least --queries
  // requests went through, so each swap demonstrably lands mid-load.
  constexpr int kClients = 8;
  std::atomic<bool> stop{false};
  std::atomic<int> issued{0};
  std::atomic<size_t> wrong_generation{0};
  std::atomic<size_t> failed{0};
  std::vector<uint64_t> responses_per_generation(
      static_cast<size_t>(swaps) + 1, 0);
  Mutex gen_mu("cli.reindex.generations");
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  Stopwatch watch;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c]() {
      Rng rng(seed ^ (0x9e3779b9ULL * (c + 1)));
      while (!stop.load(std::memory_order_relaxed)) {
        issued.fetch_add(1, std::memory_order_relaxed);
        ServiceRequest req;
        req.object_id = static_cast<int>(rng.NextBounded(db_size));
        req.options.k = k;
        const uint64_t admission_gen = service.generation();
        StatusOr<ServiceResponse> response = service.Execute(req);
        const uint64_t completion_gen = service.generation();
        if (!response.ok()) {
          failed.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (response->generation < admission_gen ||
            response->generation > completion_gen) {
          wrong_generation.fetch_add(1, std::memory_order_relaxed);
        }
        MutexLock lock(&gen_mu);
        if (response->generation < responses_per_generation.size()) {
          ++responses_per_generation[response->generation];
        }
      }
    });
  }

  // Publish the swaps spread across the workload: wait for a slice of
  // the queries, then trigger and wait for the publication (clients
  // keep hammering the service throughout).
  for (int s = 1; s <= swaps; ++s) {
    const int threshold = queries * s / (swaps + 1);
    while (issued.load(std::memory_order_relaxed) < threshold) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const Status st = rebuilder.Trigger().get();
    if (!st.ok()) std::fprintf(stderr, "rebuild: %s\n", st.ToString().c_str());
  }
  while (issued.load(std::memory_order_relaxed) < queries) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& client : clients) client.join();
  const double elapsed = watch.ElapsedSeconds();

  const Rebuilder::Stats rstats = rebuilder.stats();
  std::printf("reindex: %d queries from %d clients in %.2f s with %llu "
              "snapshot swaps (%s rebuilds, last %.2f s)\n",
              issued.load(std::memory_order_relaxed), kClients, elapsed,
              static_cast<unsigned long long>(rstats.published),
              reextract ? "re-extraction" : "index-only",
              rstats.last_build_seconds);
  for (size_t g = 0; g < responses_per_generation.size(); ++g) {
    if (responses_per_generation[g] == 0) continue;
    std::printf("  generation %zu served %llu responses\n", g,
                static_cast<unsigned long long>(responses_per_generation[g]));
  }
  std::printf("generation-window violations: %zu, failed: %zu\n",
              wrong_generation.load(std::memory_order_relaxed),
              failed.load(std::memory_order_relaxed));
  service.PrintStats();
  if (flags.Has("out")) {
    const Status st = service.snapshot()->db().Save(flags.Get("out", ""));
    if (!st.ok()) return Fail(st);
    std::printf("final-generation database saved to %s\n",
                flags.Get("out", "").c_str());
  }
  return wrong_generation.load(std::memory_order_relaxed) == 0 ? 0 : 1;
}

// --- serve ------------------------------------------------------------

// SIGINT/SIGTERM request a graceful stop: the flag is polled by the
// serve loop, which then drains in-flight requests via Server::Stop.
std::atomic<bool> g_serve_stop{false};

void HandleStopSignal(int) {
  g_serve_stop.store(true, std::memory_order_relaxed);
}

// Runs the TCP serving front-end (net::Server) over a QueryService on
// the given database. Every remote request goes through the same
// admission control, deadlines, result cache and snapshot machinery as
// the in-process batch command.
int CmdServe(const Flags& flags) {
  VSIM_CLI_CHECK_FLAGS(flags, "serve",
                       {"db", "dataset", "count", "host", "port",
                        "port-file", "duration-s", "threads", "cache-mb",
                        "max-queue", "max-connections", "simulate-io",
                        "io-page-us", "seed", "stats-interval-s", "store",
                        "pool-pages", "keep-ram-sets",
                        "reactor-threads", "read-timeout-s",
                        "slow-query-ms", "trace-export", "profile-hz"});
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  StatusOr<CadDatabase> db = Status::Internal("unset");
  if (flags.Has("db")) {
    db = CadDatabase::Load(flags.Get("db", ""));
  } else if (flags.Has("dataset")) {
    const std::string dataset = flags.Get("dataset", "car");
    if (dataset != "car" && dataset != "aircraft") {
      return UsageFail(Status::InvalidArgument(
          "unknown --dataset '" + dataset + "' (valid: car aircraft)"));
    }
    const size_t count = static_cast<size_t>(flags.GetInt("count", 200));
    ExtractionOptions opt;
    opt.extract_histograms = false;
    Dataset ds = dataset == "aircraft" ? MakeAircraftDataset(count, seed)
                                       : MakeCarDataset(count, seed);
    std::printf("extracting %zu synthetic objects...\n", ds.size());
    db = CadDatabase::FromDataset(ds, opt, flags.GetInt("threads", 0));
  } else {
    std::fprintf(stderr,
                 "usage: vsim serve --db FILE | --dataset car|aircraft "
                 "[--count N] [--host H] [--port P] [--port-file FILE] "
                 "[--duration-s S] [--threads T] [--cache-mb MB] "
                 "[--max-queue N] [--max-connections N] [--simulate-io] "
                 "[--io-page-us U] [--stats-interval-s S] "
                 "[--store FILE [--pool-pages N] [--keep-ram-sets]] "
                 "[--reactor-threads N] "
                 "[--read-timeout-s S] [--slow-query-ms MS] "
                 "[--trace-export FILE] [--profile-hz HZ]\n");
    return 2;
  }
  if (!db.ok()) return Fail(db.status());
  if (db->size() == 0) {
    return Fail(Status::FailedPrecondition("empty database"));
  }

  QueryServiceOptions sopts;
  sopts.num_threads = flags.GetInt("threads", 0);
  sopts.cache_bytes =
      static_cast<size_t>(flags.GetInt("cache-mb", 32)) << 20;
  sopts.max_queue = static_cast<size_t>(flags.GetInt("max-queue", 4096));
  sopts.simulate_io_wait = flags.Has("simulate-io");
  sopts.io_params.seconds_per_page_access =
      flags.GetDouble("io-page-us", 100.0) * 1e-6;
  sopts.io_params.seconds_per_byte = 0.0;
  // --slow-query-ms: the flight recorder's slow-query threshold
  // (docs/OPERATIONS.md "Slow-query triage"). Traces at or above it are
  // retained in the dedicated slow ring (`vsim stats --slow`); the
  // active value is exported as
  // vsim_flight_recorder_slow_threshold_seconds.
  const double slow_query_ms = flags.GetDouble("slow-query-ms", 100.0);
  if (slow_query_ms < 0.0) {
    return UsageFail(
        Status::InvalidArgument("--slow-query-ms must be >= 0"));
  }
  sopts.slow_trace_seconds = slow_query_ms * 1e-3;

  // --store: serve disk-backed. The database's vector sets are written
  // into a fresh VectorSetStore file, in the centroid filter's X-tree
  // leaf order, and every refinement fetch goes through the sharded
  // buffer pool (vsim_cache_pool_* series appear in the
  // stats exposition). Concurrency-safe: the pool serves all worker
  // threads at once.
  std::shared_ptr<const DbSnapshot> snapshot;
  const std::string store_path = flags.Get("store", "");
  if (!store_path.empty()) {
    const size_t pool_pages =
        static_cast<size_t>(flags.GetInt("pool-pages", 64));
    StatusOr<std::shared_ptr<const DbSnapshot>> disk_snap =
        DbSnapshot::CreateDiskBacked(std::move(db).value(), store_path, 0,
                                     sopts.io_params, pool_pages,
                                     flags.Has("keep-ram-sets"));
    if (!disk_snap.ok()) return Fail(disk_snap.status());
    snapshot = std::move(disk_snap).value();
    std::printf("disk-backed store at %s (%zu-frame pool, %zu shards)\n",
                store_path.c_str(), snapshot->store()->pool().capacity(),
                snapshot->store()->pool().shard_count());
  } else {
    snapshot = DbSnapshot::Create(std::move(db).value(), 0);
  }
  QueryService service(std::move(snapshot), sopts);

  net::ServerOptions nopts;
  nopts.host = flags.Get("host", "127.0.0.1");
  nopts.port = flags.GetInt("port", 0);
  nopts.max_connections = flags.GetInt("max-connections", 64);
  // --reactor-threads: the epoll event-loop pool that serves every
  // connection (docs/OPERATIONS.md "Capacity planning").
  nopts.reactor_threads = flags.GetInt("reactor-threads", 2);
  if (nopts.reactor_threads < 1) {
    return UsageFail(
        Status::InvalidArgument("--reactor-threads must be >= 1"));
  }
  // --read-timeout-s: reap peers stalled mid-frame (0 = never); see
  // docs/PROTOCOL.md section 11.1.
  nopts.read_timeout_seconds = flags.GetDouble("read-timeout-s", 0.0);
  if (nopts.read_timeout_seconds < 0.0) {
    return UsageFail(
        Status::InvalidArgument("--read-timeout-s must be >= 0"));
  }
  net::Server server(&service, nopts);
  const Status started = server.Start();
  if (!started.ok()) return Fail(started);
  std::printf("serving %llu objects on %s:%d (%d worker threads, "
              "%d reactor threads)\n",
              static_cast<unsigned long long>(
                  service.snapshot()->db().size()),
              nopts.host.c_str(), server.port(), service.num_threads(),
              nopts.reactor_threads);
  std::fflush(stdout);

  // --profile-hz: arm the in-process SIGPROF sampling profiler for the
  // server's whole lifetime (0 = off, the default). The collapsed
  // stacks print at shutdown; a remote `vsim stats --profile-seconds`
  // can also arm/collect at runtime (docs/OBSERVABILITY.md
  // "Profiling").
  const int profile_hz = flags.GetInt("profile-hz", 0);
  if (profile_hz < 0) {
    return UsageFail(Status::InvalidArgument("--profile-hz must be >= 0"));
  }
  if (profile_hz > 0 && !obs::Profiler::Instance().Arm(profile_hz)) {
    std::fprintf(stderr, "warning: profiler failed to arm\n");
  }

  // --port-file: publish the bound port for scripts that start the
  // server with --port 0 (tools/serve_smoke.sh, tools/ci.sh).
  const std::string port_file = flags.Get("port-file", "");
  if (!port_file.empty()) {
    std::ofstream out(port_file);
    out << server.port() << '\n';
    if (!out) {
      server.Stop();
      return Fail(Status::IOError("cannot write --port-file " + port_file));
    }
  }

  g_serve_stop.store(false, std::memory_order_relaxed);
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  const double duration_s = flags.GetDouble("duration-s", 0.0);
  // --stats-interval-s: periodically dump the full metrics exposition to
  // stdout while serving (0 disables). Lets an operator watch the same
  // vsim_* series a `vsim stats` scrape would return, without a client.
  const double stats_interval_s = flags.GetDouble("stats-interval-s", 0.0);
  Stopwatch watch;
  double next_stats_s =
      stats_interval_s > 0 ? stats_interval_s : -1.0;
  while (!g_serve_stop.load(std::memory_order_relaxed)) {
    if (duration_s > 0 && watch.ElapsedSeconds() >= duration_s) break;
    if (next_stats_s > 0 && watch.ElapsedSeconds() >= next_stats_s) {
      std::printf("--- metrics @ %.1fs ---\n%s", watch.ElapsedSeconds(),
                  service.metrics().TextExposition().c_str());
      std::fflush(stdout);
      next_stats_s += stats_interval_s;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::printf("draining...\n");
  server.Stop();
  if (profile_hz > 0 && obs::Profiler::Instance().armed()) {
    obs::Profiler::Instance().Disarm();
    const std::string collapsed = obs::Profiler::Instance().CollapsedStacks();
    std::printf("--- profile (%llu samples, collapsed stacks) ---\n%s",
                static_cast<unsigned long long>(
                    obs::Profiler::Instance().samples()),
                collapsed.c_str());
  }
  // --trace-export: dump the span-tree ring as a Chrome trace-event
  // timeline (load in Perfetto / chrome://tracing) covering the most
  // recent requests at shutdown.
  const std::string trace_export = flags.Get("trace-export", "");
  if (!trace_export.empty()) {
    const std::vector<obs::SpanTreeRecord> trees =
        service.span_ring().Snapshot(service.span_ring().capacity());
    std::ofstream out(trace_export);
    out << obs::RenderChromeTrace(trees);
    if (!out) {
      std::fprintf(stderr, "warning: cannot write --trace-export %s\n",
                   trace_export.c_str());
    } else {
      std::printf("wrote %zu span tree(s) to %s\n", trees.size(),
                  trace_export.c_str());
    }
  }
  const net::ServerStats nstats = server.stats();
  std::printf("served %llu requests (%llu responses) over %llu "
              "connections; %llu rejected, %llu protocol errors\n",
              static_cast<unsigned long long>(nstats.requests_received),
              static_cast<unsigned long long>(nstats.responses_sent),
              static_cast<unsigned long long>(nstats.connections_accepted),
              static_cast<unsigned long long>(nstats.connections_rejected),
              static_cast<unsigned long long>(nstats.protocol_errors));
  service.PrintStats();
  return 0;
}

// --- remote-query -----------------------------------------------------

// Remote twin of `vsim query`, speaking the wire protocol to a `vsim
// serve` endpoint. External meshes (--mesh) are extracted locally using
// the extraction options fetched from the server's info RPC, so the
// query representation matches what a server-side extraction would
// produce.
int CmdRemoteQuery(const Flags& flags) {
  VSIM_CLI_CHECK_FLAGS(flags, "remote-query",
                       {"host", "port", "id", "mesh", "k", "kind",
                        "strategy", "eps", "invariant", "reflections",
                        "timeout-ms"});
  const int port = flags.GetInt("port", 0);
  if (port <= 0) {
    std::fprintf(stderr,
                 "usage: vsim remote-query --port P [--host H] "
                 "(--id N | --mesh FILE) [--k K] "
                 "[--kind knn|range|invariant-knn|invariant-range] "
                 "[--strategy filter|scan|mtree|onevector] "
                 "[--eps E] [--invariant] [--reflections] "
                 "[--timeout-ms MS]\n");
    return 2;
  }

  ServiceRequest req;
  StatusOr<QueryKind> kind = ParseQueryKind(flags.Get("kind", "knn"));
  if (!kind.ok()) return UsageFail(kind.status());
  req.kind = kind.value();
  if (flags.Has("invariant")) {
    // Shorthand: lift the plain kind to its pose-invariant twin.
    if (req.kind == QueryKind::kKnn) req.kind = QueryKind::kInvariantKnn;
    if (req.kind == QueryKind::kRange) {
      req.kind = QueryKind::kInvariantRange;
    }
  }
  StatusOr<QueryStrategy> strategy =
      ParseQueryStrategy(flags.Get("strategy", "filter"));
  if (!strategy.ok()) return UsageFail(strategy.status());
  req.strategy = strategy.value();
  req.options.k = flags.GetInt("k", 10);
  req.options.eps = flags.GetDouble("eps", 0.0);
  req.with_reflections = flags.Has("reflections");
  req.options.timeout_seconds = flags.GetDouble("timeout-ms", 0.0) * 1e-3;

  const std::string host = flags.Get("host", "127.0.0.1");
  StatusOr<net::Client> client = net::Client::Connect(host, port);
  if (!client.ok()) return Fail(client.status());

  std::string query_desc;
  const std::string mesh_path = flags.Get("mesh", "");
  if (!mesh_path.empty()) {
    StatusOr<net::ServerInfo> info = client->Info();
    if (!info.ok()) return Fail(info.status());
    ExtractionOptions opt;
    opt.num_covers = info->num_covers;
    opt.cover_resolution = info->cover_resolution;
    opt.histogram_cells = info->histogram_cells;
    opt.histogram_resolution = info->histogram_resolution;
    opt.extract_histograms = info->extract_histograms;
    opt.anisotropic_fit = info->anisotropic_fit;
    opt.cover_search = info->cover_search;
    StatusOr<TriangleMesh> mesh = LoadMesh(mesh_path);
    if (!mesh.ok()) return Fail(mesh.status());
    StatusOr<ObjectRepr> repr =
        ExtractObject({WeldVertices(*mesh)}, opt);
    if (!repr.ok()) return Fail(repr.status());
    req.object_id = -1;
    req.query = std::move(repr).value();
    query_desc = mesh_path;
  } else {
    req.object_id = flags.GetInt("id", 0);
    query_desc = "object " + std::to_string(req.object_id);
  }

  StatusOr<ServiceResponse> response = client->Execute(req);
  if (!response.ok()) return Fail(response.status());
  std::printf("%s of %s @ %s:%d (%s%s):\n", QueryKindName(req.kind),
              query_desc.c_str(), host.c_str(), port,
              QueryStrategyName(req.strategy),
              response->cache_hit ? ", cache hit" : "");
  for (const Neighbor& n : response->neighbors) {
    std::printf("  %6d  distance %.4f\n", n.id, n.distance);
  }
  if (!response->ids.empty()) {
    std::printf("  %zu objects within eps %.4f:", response->ids.size(),
                req.options.eps);
    for (int id : response->ids) std::printf(" %d", id);
    std::printf("\n");
  }
  std::printf("generation %llu; %.2f ms server latency, %.2f ms CPU, "
              "%zu pages / %zu bytes simulated I/O, %zu exact distances\n",
              static_cast<unsigned long long>(response->generation),
              1e3 * response->latency_seconds,
              1e3 * response->cost.cpu_seconds,
              response->cost.io.page_accesses(),
              response->cost.io.bytes_read(),
              response->cost.candidates_refined);
  // The trace id minted client-side (docs/PROTOCOL.md §12); an old
  // server does not echo it, so fall back to what was sent. Feed it to
  // `vsim stats --trace-export` to pull this request's timeline.
  const uint64_t trace_hi = response->trace_hi != 0 || response->trace_lo != 0
                                ? response->trace_hi
                                : client->last_trace().trace_hi;
  const uint64_t trace_lo = response->trace_hi != 0 || response->trace_lo != 0
                                ? response->trace_lo
                                : client->last_trace().trace_lo;
  std::printf("trace %016llx%016llx%s\n",
              static_cast<unsigned long long>(trace_hi),
              static_cast<unsigned long long>(trace_lo),
              response->trace_hi == 0 && response->trace_lo == 0
                  ? " (not echoed by server)"
                  : "");
  return 0;
}

// --- stats ------------------------------------------------------------

// Scrapes a running `vsim serve` endpoint: prints the server's metrics
// exposition (the same text a --stats-interval-s dump shows) followed
// by the most recent flight-recorder traces, newest first. With --slow,
// only traces over the server's slow-query threshold are returned.
int CmdStats(const Flags& flags) {
  VSIM_CLI_CHECK_FLAGS(flags, "stats",
                       {"host", "port", "traces", "slow", "no-metrics",
                        "spans", "trace-export", "profile-seconds",
                        "profile-hz"});
  const int port = flags.GetInt("port", 0);
  if (port <= 0) {
    std::fprintf(stderr,
                 "usage: vsim stats --port P [--host H] [--traces N] "
                 "[--slow] [--no-metrics] [--spans] "
                 "[--trace-export FILE] "
                 "[--profile-seconds S [--profile-hz HZ]]\n");
    return 2;
  }
  const std::string host = flags.Get("host", "127.0.0.1");
  StatusOr<net::Client> client = net::Client::Connect(host, port);
  if (!client.ok()) return Fail(client.status());

  // --profile-seconds: remote profiling session -- arm the server's
  // SIGPROF sampler, wait, collect the collapsed stacks, disarm
  // (docs/OBSERVABILITY.md "Profiling"). Rides the same kStatsRequest
  // frame as everything else (docs/PROTOCOL.md §12).
  const double profile_seconds = flags.GetDouble("profile-seconds", 0.0);
  if (profile_seconds > 0) {
    net::StatsRequest arm;
    arm.max_traces = 0;
    arm.profile_op = net::kProfileArm;
    arm.profile_hz =
        static_cast<uint32_t>(flags.GetInt("profile-hz", 100));
    StatusOr<net::StatsResponse> armed = client->Stats(arm);
    if (!armed.ok()) return Fail(armed.status());
    std::this_thread::sleep_for(std::chrono::duration<double>(
        profile_seconds));
    net::StatsRequest collect;
    collect.max_traces = 0;
    collect.profile_op = net::kProfileCollect;
    StatusOr<net::StatsResponse> collected = client->Stats(collect);
    if (!collected.ok()) return Fail(collected.status());
    net::StatsRequest disarm;
    disarm.max_traces = 0;
    disarm.profile_op = net::kProfileDisarm;
    StatusOr<net::StatsResponse> disarmed = client->Stats(disarm);
    if (!disarmed.ok()) return Fail(disarmed.status());
    std::printf("--- profile (%.1fs @ %u Hz, collapsed stacks) ---\n%s",
                profile_seconds, arm.profile_hz,
                collected->profile_text.c_str());
    return 0;
  }

  const std::string trace_export = flags.Get("trace-export", "");
  const uint32_t max_traces =
      static_cast<uint32_t>(flags.GetInt("traces", 64));
  net::StatsRequest stats_request;
  stats_request.max_traces = std::min(max_traces, net::kMaxWireTraces);
  stats_request.slow_only = flags.Has("slow");
  stats_request.include_spans =
      flags.Has("spans") || !trace_export.empty();
  StatusOr<net::StatsResponse> stats = client->Stats(stats_request);
  if (!stats.ok()) return Fail(stats.status());

  // --trace-export: write the server's span trees as a Chrome
  // trace-event timeline (load in Perfetto / chrome://tracing).
  if (!trace_export.empty()) {
    std::ofstream out(trace_export);
    out << obs::RenderChromeTrace(stats->span_trees);
    if (!out) {
      return Fail(
          Status::IOError("cannot write --trace-export " + trace_export));
    }
    std::printf("wrote %zu span tree(s) to %s\n",
                stats->span_trees.size(), trace_export.c_str());
  }
  if (flags.Has("spans")) {
    std::printf("%zu span tree(s), newest first:\n",
                stats->span_trees.size());
    for (const obs::SpanTreeRecord& tree : stats->span_trees) {
      std::printf("  trace %016llx%016llx (query #%llu, %u spans%s):\n",
                  static_cast<unsigned long long>(tree.trace_hi),
                  static_cast<unsigned long long>(tree.trace_lo),
                  static_cast<unsigned long long>(tree.query_trace_id),
                  tree.span_count,
                  tree.spans_dropped > 0 ? ", some dropped" : "");
      const uint32_t shown =
          std::min<uint32_t>(tree.span_count, obs::kSpanArenaCapacity);
      for (uint32_t i = 0; i < shown; ++i) {
        const obs::SpanRecord& span = tree.spans[i];
        std::printf("    %-12s %.3f ms (counter %llu)\n",
                    obs::SpanNameString(
                        static_cast<obs::SpanName>(span.name)),
                    1e-6 * static_cast<double>(span.end_ns - span.start_ns),
                    static_cast<unsigned long long>(span.counter));
      }
    }
  }

  if (!flags.Has("no-metrics")) {
    std::printf("%s", stats->metrics_text.c_str());
  }
  if (stats->traces.empty()) {
    std::printf("\n(no %straces recorded)\n",
                flags.Has("slow") ? "slow " : "");
    return 0;
  }
  std::printf("\n%zu %strace(s), newest first:\n", stats->traces.size(),
              flags.Has("slow") ? "slow " : "");
  for (const obs::QueryTrace& t : stats->traces) {
    std::printf(
        "  #%llu %s/%s gen %llu%s: total %.3f ms (queue %.3f, "
        "filter %.3f, refine %.3f); %llu filter hits -> %llu refined, "
        "%llu hungarian, %llu pages / %llu bytes I/O%s\n",
        static_cast<unsigned long long>(t.trace_id),
        QueryKindName(static_cast<QueryKind>(t.kind)),
        QueryStrategyName(static_cast<QueryStrategy>(t.strategy)),
        static_cast<unsigned long long>(t.generation),
        t.cache_hit ? " (cache hit)" : "",
        1e3 * t.total_seconds, 1e3 * t.queue_seconds,
        1e3 * t.filter_seconds, 1e3 * t.refine_seconds,
        static_cast<unsigned long long>(t.filter_hits),
        static_cast<unsigned long long>(t.candidates_refined),
        static_cast<unsigned long long>(t.hungarian_invocations),
        static_cast<unsigned long long>(t.page_accesses),
        static_cast<unsigned long long>(t.bytes_read),
        t.status_code == 0
            ? ""
            : (" [status " + std::to_string(t.status_code) + "]").c_str());
  }
  return 0;
}

int Run(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: vsim <generate|build|info|query|classify|optics|"
                 "batch|reindex|serve|remote-query|stats> [flags]\n");
    return 2;
  }
  const std::string cmd = argv[1];
  const Flags flags(argc - 2, argv + 2);
  if (cmd == "generate") return CmdGenerate(flags);
  if (cmd == "build") return CmdBuild(flags);
  if (cmd == "info") return CmdInfo(flags);
  if (cmd == "query") return CmdQuery(flags);
  if (cmd == "classify") return CmdClassify(flags);
  if (cmd == "optics") return CmdOptics(flags);
  if (cmd == "batch") return CmdBatch(flags);
  if (cmd == "reindex") return CmdReindex(flags);
  if (cmd == "serve") return CmdServe(flags);
  if (cmd == "remote-query") return CmdRemoteQuery(flags);
  if (cmd == "stats") return CmdStats(flags);
  std::fprintf(stderr, "unknown command: %s\n", cmd.c_str());
  return 2;
}

}  // namespace
}  // namespace vsim

int main(int argc, char** argv) { return vsim::Run(argc, argv); }
