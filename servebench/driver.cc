// Serving benchmark driver: starts the real net::Server (epoll transport)
// in process over a QueryService, drives seeded closed-loop 10-NN query
// streams through net::Client on loopback, checks every answer, and
// prints one JSON result line. servebench/run.py builds and runs it;
// servebench/README.md describes the workloads and metrics.
//
//   servebench --workload knn_ram|knn_disk|hot_cached_reindex
//              --seed N --seconds S --trace 0|1 [--smoke 1]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// is the traced run: ten rounds of an untraced sub-window (the
// tracing-overhead baseline), a traced sub-window over the wire, and two
// in-process replays of that sub-window's engine work -- direct
// QueryEngine::Knn calls, and the filter/refine path rebuilt from
// MultiStepKnn with a timing ExactDistanceFn -- with spans recorded
// around every layer call.
#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "vsim/common/rng.h"
#include "vsim/common/stopwatch.h"
#include "vsim/core/query_engine.h"
#include "vsim/core/similarity.h"
#include "vsim/data/dataset.h"
#include "vsim/distance/min_matching.h"
#include "vsim/index/mtree.h"
#include "vsim/index/multistep.h"
#include "vsim/index/xtree.h"
#include "vsim/kernels/kernels.h"
#include "vsim/net/client.h"
#include "vsim/net/protocol.h"
#include "vsim/net/server.h"
#include "vsim/obs/span.h"
#include "vsim/service/db_snapshot.h"
#include "vsim/service/query_service.h"

using namespace vsim;

namespace {

// Fixed settings of every workload (README "Fixed settings"). One
// closed-loop connection keeps at most one request in flight, so the
// client, reactor and worker threads take turns instead of competing
// for the host's few cores.
constexpr int kK = 10;
constexpr int kConnections = 1;
constexpr int kWorkers = 2;
constexpr int kReactorThreads = 1;
constexpr size_t kPoolPages = 64;
constexpr uint64_t kCorpusSeed = 7;
constexpr int kExtractThreads = 4;
constexpr double kDistanceTolerance = 1e-9;
// Cache misses of the traced window replayed in process, and answered
// ids checked against the brute-force oracle.
constexpr size_t kReplayCap = 2000;
constexpr size_t kOracleSamples = 32;
// Round-trip samples one connection keeps per window. The buffer is
// allocated and touched once, so the benchmark's own memory does not
// grow with throughput and peak_rss_mb moves only with the server's.
constexpr size_t kRttCapacity = size_t{1} << 20;
// Spans of this many replayed requests (and their wire requests) are
// written to the trace file; all spans feed the per-layer table.
constexpr size_t kWrittenTraceRequests = 100;

enum class Workload { kKnnRam, kKnnDisk, kHotCachedReindex };

struct Args {
  Workload workload = Workload::kKnnRam;
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  size_t objects = 2000;
  int setups = 5;
  double warmup_seconds = 1.0;
  size_t hot_set = 256;
  uint64_t swap_every = 200000;
  std::string out_dir = "servebench/results";
  std::string work_dir = ".bench_build/work";
  std::string commit = "unknown";
};

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Linearly interpolated q-quantile, 0 <= q <= 1.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

// Nearest-rank percentile of an already sorted sample.
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

// --- Query streams ----------------------------------------------------

// The ids one connection sends, in order: uniform over the corpus, or
// Zipf(1) over a seed-chosen hot set. The uniform stream walks seeded
// permutations of the corpus (uniform without replacement), so every
// stretch of a run holds the corpus's own mix of cheap and expensive
// queries and the latency tail does not move with the seed's luck. Each
// connection's stream depends only on (seed, connection), so a run
// replays exactly.
class QueryStream {
 public:
  QueryStream(const Args& args, const std::vector<int>& hot_ids, int conn)
      : rng_(args.seed * 0x9e3779b97f4a7c15ull + 101 + conn),
        hot_ids_(hot_ids) {
    if (!hot_ids_.empty()) {
      double total = 0.0;
      for (size_t r = 0; r < hot_ids_.size(); ++r) {
        total += 1.0 / static_cast<double>(r + 1);
        cdf_.push_back(total);
      }
      for (double& c : cdf_) c /= total;
    } else {
      order_.resize(args.objects);
      for (size_t i = 0; i < order_.size(); ++i) order_[i] = static_cast<int>(i);
      next_ = order_.size();
    }
  }

  int Next() {
    if (hot_ids_.empty()) {
      if (next_ == order_.size()) {
        for (size_t i = order_.size(); i > 1; --i) {
          std::swap(order_[i - 1], order_[rng_.NextBounded(i)]);
        }
        next_ = 0;
      }
      return order_[next_++];
    }
    const double u = rng_.NextDouble();
    const size_t rank = static_cast<size_t>(
        std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return hot_ids_[std::min(rank, hot_ids_.size() - 1)];
  }

 private:
  Rng rng_;
  const std::vector<int>& hot_ids_;
  std::vector<double> cdf_;
  std::vector<int> order_;  // uniform stream: the current permutation
  size_t next_ = 0;
};

std::vector<int> ChooseHotIds(const Args& args) {
  if (args.workload != Workload::kHotCachedReindex) return {};
  std::vector<int> ids(args.objects);
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int>(i);
  Rng rng(args.seed ^ 0x405c0ffeeull);
  const size_t h = std::min(args.hot_set, ids.size());
  for (size_t i = 0; i < h; ++i) {
    std::swap(ids[i], ids[i + rng.NextBounded(ids.size() - i)]);
  }
  ids.resize(h);
  return ids;
}

// --- Setup: corpus, extraction, snapshot, service, server -------------

// One served stack. Destruction stops the server (draining in-flight
// requests) before the service and snapshot it uses go away.
struct Stack {
  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() {
    if (server != nullptr) server->Stop();
    server.reset();
    service.reset();
    base.reset();
    if (!store_path.empty()) std::remove(store_path.c_str());
  }

  CadDatabase oracle_db;  // RAM copy with every vector set
  std::shared_ptr<const DbSnapshot> base;
  std::unique_ptr<QueryService> service;
  std::unique_ptr<net::Server> server;
  std::string store_path;
  double generate_s = 0.0;
  double extract_s = 0.0;
  double build_s = 0.0;  // DbSnapshot::Create / CreateDiskBacked
  double start_s = 0.0;  // service + server construction and Start
  double total_s() const { return generate_s + extract_s + build_s + start_s; }
};

ExtractionOptions CorpusExtractionOptions() {
  ExtractionOptions opt;
  opt.extract_histograms = false;  // the vector-set model needs covers only
  return opt;
}

StatusOr<std::unique_ptr<Stack>> BuildStack(const Args& args, int index) {
  auto stack = std::make_unique<Stack>();
  Stopwatch watch;
  Dataset dataset = MakeAircraftDataset(args.objects, kCorpusSeed);
  stack->generate_s = watch.ElapsedSeconds();

  watch.Restart();
  StatusOr<CadDatabase> db = CadDatabase::FromDataset(
      dataset, CorpusExtractionOptions(), kExtractThreads);
  stack->extract_s = watch.ElapsedSeconds();
  VSIM_RETURN_NOT_OK(db.status());
  dataset = Dataset{};
  stack->oracle_db = db.value();  // untimed: the benchmark's own copy

  watch.Restart();
  if (args.workload == Workload::kKnnDisk) {
    stack->store_path = args.work_dir + "/store_" +
                        std::to_string(getpid()) + "_" +
                        std::to_string(index) + ".vspg";
    StatusOr<std::shared_ptr<const DbSnapshot>> snap =
        DbSnapshot::CreateDiskBacked(std::move(db).value(), stack->store_path,
                                     1, IoCostParams{}, kPoolPages);
    VSIM_RETURN_NOT_OK(snap.status());
    stack->base = std::move(snap).value();
  } else {
    stack->base = DbSnapshot::Create(std::move(db).value(), 1);
  }
  stack->build_s = watch.ElapsedSeconds();

  watch.Restart();
  QueryServiceOptions sopts;
  sopts.num_threads = kWorkers;
  sopts.simulate_io_wait = false;
  if (args.workload != Workload::kHotCachedReindex) sopts.cache_bytes = 0;
  stack->service = std::make_unique<QueryService>(stack->base, sopts);
  net::ServerOptions nopts;
  nopts.transport = net::Transport::kEpoll;
  nopts.reactor_threads = kReactorThreads;
  stack->server = std::make_unique<net::Server>(stack->service.get(), nopts);
  VSIM_RETURN_NOT_OK(stack->server->Start());
  stack->start_s = watch.ElapsedSeconds();
  return stack;
}

// --- Closed-loop client windows ----------------------------------------

// One completed request of a traced window.
struct WireRecord {
  int id = 0;
  int conn = 0;
  uint64_t send_ns = 0;
  uint64_t recv_ns = 0;
  double latency_s = 0.0;  // server-measured submission -> completion
  double cpu_s = 0.0;      // server-measured engine time (0 on hits)
  bool cache_hit = false;
  std::vector<Neighbor> neighbors;  // kept for cache misses only
};

// Per-connection state that lives across windows: the connection, its
// query stream, and the first answer seen per id (every later answer
// for the id must equal it exactly).
struct Connection {
  Connection(const Args& args, const std::vector<int>& hot_ids, int index)
      : conn(index), stream(args, hot_ids, index), rtt_s(kRttCapacity) {}
  int conn;
  net::Client client;
  QueryStream stream;
  std::unordered_map<int, std::vector<Neighbor>> answers;
  uint64_t mismatched = 0;

  // Per-window results. Samples past kRttCapacity are counted in
  // `completed` but not kept.
  std::vector<double> rtt_s;
  size_t completed = 0;
  std::vector<WireRecord> records;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

struct Swapper {
  Swapper(const Args& args, Stack* stack)
      : every(args.workload == Workload::kHotCachedReindex ? args.swap_every
                                                           : 0),
        stack(stack) {}
  uint64_t every;
  Stack* stack;
  std::atomic<uint64_t> completed{0};
  std::mutex mu;
  uint64_t generation = 1;  // guarded by mu
  uint64_t swaps = 0;       // guarded by mu
  uint64_t swap_failures = 0;  // guarded by mu

  // Called after every completed request: every `every` completions,
  // republish the same database and engine under the next generation,
  // which invalidates the result cache.
  void OnCompleted() {
    if (every == 0) return;
    if ((completed.fetch_add(1, std::memory_order_relaxed) + 1) % every != 0) {
      return;
    }
    std::lock_guard<std::mutex> lock(mu);
    ++generation;
    const Status st = stack->service->SwapSnapshot(DbSnapshot::Wrap(
        &stack->base->db(), &stack->base->engine(), generation));
    if (st.ok()) {
      ++swaps;
    } else {
      ++swap_failures;
    }
  }
};

// --- CPU placement -------------------------------------------------------

// During a client window every thread of the process is confined to one
// of the CPUs the process may use, moving on to the next every
// kRotatePeriod. On a shared VM one vCPU can run the same loop at half
// the speed of another for minutes, and the scheduler keeps a lone
// closed-loop request chain on the same one or two vCPUs for a whole
// run, so its speed was the luck of the draw. Visiting every CPU in turn
// gives each sub-window their average speed. The chain's client, reactor
// and worker threads take turns, so sharing one CPU costs no parallelism.
constexpr auto kRotatePeriod = std::chrono::milliseconds(250);

const std::vector<int>& AllowedCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  return cpus;
}

// Sets the affinity of every thread of the process. Failures (a thread
// that just exited, a sandbox that forbids it) leave that thread as it
// was.
void PinAllThreads(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return;
  while (const dirent* entry = readdir(dir)) {
    const int tid = std::atoi(entry->d_name);
    if (tid > 0) sched_setaffinity(tid, sizeof(set), &set);
  }
  closedir(dir);
}

// Rotates the process over AllowedCpus() until `done` is set, then lets
// every thread use all of them again.
void RotateCpus(const std::atomic<bool>& done) {
  const std::vector<int>& cpus = AllowedCpus();
  if (cpus.size() < 2) return;
  constexpr auto kPoll = std::chrono::milliseconds(5);
  constexpr int polls = static_cast<int>(kRotatePeriod / kPoll);
  for (size_t i = 0; !done.load(std::memory_order_acquire); ++i) {
    PinAllThreads({cpus[i % cpus.size()]});
    for (int p = 0; p < polls && !done.load(std::memory_order_acquire); ++p) {
      std::this_thread::sleep_for(kPoll);
    }
  }
  PinAllThreads(cpus);
}

struct WindowResult {
  double elapsed_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> rtt_s;  // all connections
  size_t completed = 0;
  std::vector<WireRecord> records;  // traced windows, by send time
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

WindowResult RunWindow(std::vector<std::unique_ptr<Connection>>& conns,
                       Swapper* swapper, double seconds, bool traced,
                       size_t keep_neighbors) {
  for (auto& c : conns) {
    c->completed = 0;
    c->records.clear();
    c->attempted = 0;
    c->failed = 0;
  }
  std::atomic<size_t> kept{0};
  const double cpu0 = CpuSeconds();
  const uint64_t start_ns = NowNs();
  const uint64_t deadline_ns =
      start_ns + static_cast<uint64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (auto& owned : conns) {
    Connection* c = owned.get();
    threads.emplace_back([c, swapper, deadline_ns, traced, keep_neighbors,
                          &kept]() {
      uint64_t now = NowNs();
      while (now < deadline_ns && c->client.ok()) {
        ServiceRequest request;
        request.kind = QueryKind::kKnn;
        request.strategy = QueryStrategy::kVectorSetFilter;
        request.object_id = c->stream.Next();
        request.options.k = kK;
        const uint64_t send = NowNs();
        StatusOr<ServiceResponse> response = c->client.Execute(request);
        now = NowNs();
        ++c->attempted;
        if (!response.ok()) {
          ++c->failed;
          continue;
        }
        if (c->completed < c->rtt_s.size()) {
          c->rtt_s[c->completed] = static_cast<double>(now - send) * 1e-9;
        }
        ++c->completed;
        auto [it, inserted] =
            c->answers.emplace(request.object_id, response->neighbors);
        if (!inserted && it->second != response->neighbors) {
          ++c->mismatched;
          ++c->failed;
        }
        if (traced) {
          WireRecord record;
          record.id = request.object_id;
          record.conn = c->conn;
          record.send_ns = send;
          record.recv_ns = now;
          record.latency_s = response->latency_seconds;
          record.cpu_s = response->cost.cpu_seconds;
          record.cache_hit = response->cache_hit;
          if (!record.cache_hit &&
              kept.fetch_add(1, std::memory_order_relaxed) < keep_neighbors) {
            record.neighbors = response->neighbors;
          }
          c->records.push_back(std::move(record));
        }
        swapper->OnCompleted();
      }
    });
  }
  std::atomic<bool> done{false};
  std::thread rotator([&done]() { RotateCpus(done); });
  for (std::thread& t : threads) t.join();
  WindowResult result;
  result.elapsed_s = static_cast<double>(NowNs() - start_ns) * 1e-9;
  result.cpu_s = CpuSeconds() - cpu0;
  done.store(true, std::memory_order_release);
  rotator.join();
  for (auto& c : conns) {
    result.rtt_s.insert(
        result.rtt_s.end(), c->rtt_s.begin(),
        c->rtt_s.begin() + static_cast<std::ptrdiff_t>(
                               std::min(c->completed, c->rtt_s.size())));
    result.completed += c->completed;
    for (WireRecord& r : c->records) result.records.push_back(std::move(r));
    result.attempted += c->attempted;
    result.failed += c->failed;
  }
  std::sort(result.records.begin(), result.records.end(),
            [](const WireRecord& a, const WireRecord& b) {
              return a.send_ns < b.send_ns;
            });
  return result;
}

// --- Correctness oracle -------------------------------------------------

// Brute-force minimal-matching k-NN distances of `query_id` over the
// whole corpus.
std::vector<double> BruteForceDistances(const CadDatabase& db, int query_id) {
  const VectorSet& q = db.object(query_id).vector_set;
  std::vector<double> d(db.size());
  for (size_t i = 0; i < db.size(); ++i) {
    d[i] = VectorSetDistance(q, db.object(static_cast<int>(i)).vector_set);
  }
  return d;
}

// Checks a sample of answered ids against the brute-force scan: the
// answer's distances equal the true k smallest within 1e-9, and each
// returned id really lies at its reported distance. Returns the number
// of mismatching answers.
uint64_t RunOracle(const Args& args, const CadDatabase& db,
                   const std::unordered_map<int, std::vector<Neighbor>>& answers,
                   size_t* checked) {
  std::vector<int> ids;
  ids.reserve(answers.size());
  for (const auto& [id, unused] : answers) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  Rng rng(args.seed ^ 0x0a11ce5ull);
  const size_t n = std::min(kOracleSamples, ids.size());
  for (size_t i = 0; i < n; ++i) {
    std::swap(ids[i], ids[i + rng.NextBounded(ids.size() - i)]);
  }
  uint64_t bad = 0;
  for (size_t i = 0; i < n; ++i) {
    const int id = ids[i];
    const std::vector<Neighbor>& answer = answers.at(id);
    std::vector<double> d = BruteForceDistances(db, id);
    const size_t k = std::min(static_cast<size_t>(kK), d.size());
    bool ok = answer.size() == k;
    for (size_t j = 0; ok && j < k; ++j) {
      const int got = answer[j].id;
      ok = got >= 0 && static_cast<size_t>(got) < d.size() &&
           std::fabs(d[got] - answer[j].distance) <= kDistanceTolerance;
    }
    std::partial_sort(d.begin(), d.begin() + static_cast<std::ptrdiff_t>(k),
                      d.end());
    for (size_t j = 0; ok && j < k; ++j) {
      ok = std::fabs(d[j] - answer[j].distance) <= kDistanceTolerance;
    }
    if (!ok) {
      ++bad;
      std::fprintf(stderr, "oracle mismatch for query id %d\n", id);
    }
  }
  *checked = n;
  return bad;
}

// --- Traced run: spans --------------------------------------------------

enum SpanName : uint8_t {
  kNetRoundTrip,   // client Execute over loopback (wire window)
  kCoreKnn,        // direct QueryEngine::Knn (engine replay)
  kIndexMultiStep, // MultiStepKnn on the centroid X-tree (rebuilt replay)
  kDistanceExact,  // one exact-distance call inside MultiStepKnn
  kStorageGet,     // one VectorSetStore::Get inside an exact call
  kSpanNameCount,
};

const char* SpanNameString(uint8_t name) {
  switch (name) {
    case kNetRoundTrip: return "net.roundtrip";
    case kCoreKnn: return "core.knn";
    case kIndexMultiStep: return "index.multistep";
    case kDistanceExact: return "distance.exact";
    case kStorageGet: return "storage.get";
  }
  return "unknown";
}

// A timed interval. `request` indexes the traced window's requests, so
// the spans of one request share it across the three passes; `parent`
// indexes the same span vector (-1 for a root).
struct Span {
  uint8_t name = 0;
  uint8_t pass = 0;  // 1 wire window, 2 engine replay, 3 rebuilt replay
  int32_t parent = -1;
  uint32_t request = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint8_t tid = 0;  // connection (wire) or replay worker
};

// Self time per span name: duration minus the durations of direct
// children, summed over all spans.
std::vector<double> SelfSeconds(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-9;
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      self[spans[i].parent] -=
          static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-9;
    }
  }
  std::vector<double> by_name(kSpanNameCount, 0.0);
  for (size_t i = 0; i < spans.size(); ++i) by_name[spans[i].name] += self[i];
  return by_name;
}

// Chrome trace-event JSON (chrome://tracing, Perfetto). The wire
// window's server-side times are reported by the server, not timed
// here, so they ride as args of the round-trip span instead of being
// drawn as intervals.
bool WriteTraceFile(const std::string& path,
                    const std::vector<const std::vector<Span>*>& groups,
                    const std::vector<const WireRecord*>& wire,
                    uint64_t origin_ns) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  const char* pass_names[] = {"", "wire window", "engine replay",
                              "rebuilt filter/refine replay"};
  for (int pass = 1; pass <= 3; ++pass) {
    std::fprintf(f,
                 "%s{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
                 "\"args\":{\"name\":\"%s\"}}",
                 pass == 1 ? "" : ",\n", pass, pass_names[pass]);
  }
  for (const std::vector<Span>* spans : groups) {
    for (const Span& s : *spans) {
      if (s.request >= kWrittenTraceRequests) continue;
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%u",
                   SpanNameString(s.name), s.pass, s.tid,
                   (static_cast<double>(s.start_ns) -
                    static_cast<double>(origin_ns)) *
                       1e-3,
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                   s.request);
      if (s.pass == 1) {
        const WireRecord& r = *wire[s.request];
        std::fprintf(f,
                     ",\"object_id\":%d,\"cache_hit\":%s,"
                     "\"server_latency_us\":%.3f,\"server_engine_us\":%.3f",
                     r.id, r.cache_hit ? "true" : "false", r.latency_s * 1e6,
                     r.cpu_s * 1e6);
      }
      std::fprintf(f, "}}");
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}


// --- Metrics output ---------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // human-readable lines (bases, counts)
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "" : ", ") + Quote(metrics[i].name) +
           ": {\"value\": " + Num(metrics[i].value) +
           ", \"unit\": " + Quote(metrics[i].unit) + "}";
  }
  return out + "}";
}

// --- Traced run ---------------------------------------------------------

struct LayerBuildTimes {
  double xtree_s = 0.0;
  double mtree_s = 0.0;
  double engine_build_s = 0.0;
  double store_build_s = 0.0;
};

LayerBuildTimes TimeLayerBuilds(const Args& args, const Stack& stack) {
  LayerBuildTimes t;
  const CadDatabase& db = stack.oracle_db;
  const int dim = static_cast<int>(db.object(0).centroid.size());
  const int cover_dim = static_cast<int>(db.object(0).cover_vector.size());
  std::vector<FeatureVector> centroids, covers;
  std::vector<int> ids;
  for (int id = 0; id < static_cast<int>(db.size()); ++id) {
    centroids.push_back(db.object(id).centroid);
    covers.push_back(db.object(id).cover_vector);
    ids.push_back(id);
  }
  XTreeOptions xopts;
  Stopwatch watch;
  XTree centroid_tree(dim, xopts);
  Status st = centroid_tree.BulkLoad(centroids, ids);
  XTree cover_tree(cover_dim, xopts);
  if (st.ok()) st = cover_tree.BulkLoad(covers, ids);
  t.xtree_s = watch.ElapsedSeconds();
  if (!st.ok()) {
    std::fprintf(stderr, "X-tree bulk load failed: %s\n",
                 st.ToString().c_str());
  }

  MTreeOptions mopts;
  mopts.object_bytes = static_cast<size_t>(db.options().num_covers) *
                       static_cast<size_t>(dim) * sizeof(double);
  watch.Restart();
  MTree<VectorSet> mtree(
      [](const VectorSet& a, const VectorSet& b) {
        return VectorSetDistance(a, b);
      },
      mopts);
  for (int id = 0; id < static_cast<int>(db.size()); ++id) {
    mtree.Insert(db.object(id).vector_set, id);
  }
  t.mtree_s = watch.ElapsedSeconds();

  if (args.workload == Workload::kKnnDisk) {
    // The disk stack's build includes the store; time the RAM engine
    // build on the same corpus to split the two.
    CadDatabase copy = db;
    watch.Restart();
    std::shared_ptr<const DbSnapshot> ram = DbSnapshot::Create(std::move(copy), 1);
    t.engine_build_s = watch.ElapsedSeconds();
    t.store_build_s = std::max(0.0, stack.build_s - t.engine_build_s);
  } else {
    t.engine_build_s = stack.build_s;
  }
  return t;
}

struct NetCodecTimes {
  double encode_s = 0.0;  // per request: request frame + response frames
  double decode_s = 0.0;  // per request: request payload + response payload
  bool ok = true;
};

// Times the wire codec on the traced window's own messages (the cache
// misses whose answers were kept), each repeated to rise above the
// clock's resolution.
NetCodecTimes TimeCodec(const std::vector<const WireRecord*>& replay) {
  constexpr int kReps = 32;
  NetCodecTimes t;
  const size_t n = std::min<size_t>(replay.size(), 256);
  if (n == 0) return t;
  std::string request_frame, response_frames;
  uint64_t encode_ns = 0, decode_ns = 0;
  for (size_t i = 0; i < n; ++i) {
    const WireRecord& r = *replay[i];
    ServiceRequest request;
    request.object_id = r.id;
    request.options.k = kK;
    request.trace = obs::MintTraceContext();
    ServiceResponse response;
    response.neighbors = r.neighbors;
    response.latency_seconds = r.latency_s;
    response.cost.cpu_seconds = r.cpu_s;
    response.generation = 1;

    uint64_t t0 = NowNs();
    for (int rep = 0; rep < kReps; ++rep) {
      request_frame.clear();
      response_frames.clear();
      net::AppendRequestFrame(i + 1, request, &request_frame);
      net::AppendResponseFrames(i + 1, response, &response_frames);
    }
    encode_ns += NowNs() - t0;

    t0 = NowNs();
    for (int rep = 0; rep < kReps; ++rep) {
      const auto* req = reinterpret_cast<const uint8_t*>(request_frame.data());
      ServiceRequest decoded;
      t.ok &= net::DecodeRequestPayload(req + net::kFrameHeaderBytes,
                                        request_frame.size() -
                                            net::kFrameHeaderBytes,
                                        &decoded)
                  .ok();
      const auto* resp =
          reinterpret_cast<const uint8_t*>(response_frames.data());
      size_t offset = 0;
      net::ResponseAssembler assembler;
      while (offset + net::kFrameHeaderBytes <= response_frames.size()) {
        net::FrameHeader header;
        t.ok &= net::DecodeFrameHeader(resp + offset, net::kFrameHeaderBytes,
                                       &header)
                    .ok();
        offset += net::kFrameHeaderBytes;
        t.ok &= assembler
                    .Add(resp + offset, header.payload_bytes,
                         (header.flags & net::kFlagFinal) != 0)
                    .ok();
        offset += header.payload_bytes;
      }
      t.ok &= assembler.complete() &&
              assembler.Take().neighbors == r.neighbors;
    }
    decode_ns += NowNs() - t0;
  }
  const double per = 1e-9 / static_cast<double>(n * kReps);
  t.encode_s = static_cast<double>(encode_ns) * per;
  t.decode_s = static_cast<double>(decode_ns) * per;
  return t;
}

// Cost of one clock read, so the table can state how much of the
// rebuilt path's time is the tracing's own.
double ClockReadSeconds() {
  constexpr int kReads = 200000;
  const uint64_t t0 = NowNs();
  for (int i = 0; i < kReads; ++i) (void)NowNs();
  return static_cast<double>(NowNs() - t0) * 1e-9 / kReads;
}

// One replay worker's spans and counts.
struct ReplayShard {
  std::vector<Span> spans;
  double root_s = 0.0;  // summed durations of the pass's root spans
  size_t filter_hits = 0;
  size_t refined = 0;
  size_t exact_calls = 0;
  size_t get_calls = 0;
  uint64_t mismatches = 0;
  uint64_t get_failures = 0;
};

// Runs body(i, shard, worker) for every i in [0, n) on kConnections
// threads: the served window's requests in flight, so the replay puts the
// same concurrency on the engine, the buffer pool and the CPU caches.
template <typename Body>
std::vector<ReplayShard> Replay(size_t n, const Body& body) {
  std::vector<ReplayShard> shards(kConnections);
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kConnections; ++w) {
    threads.emplace_back([&, w]() {
      for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        body(i, &shards[w], static_cast<uint8_t>(w));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return shards;
}

// Replays the cache misses of one traced sub-window in process:
// direct engine calls, then the filter/refine path rebuilt from the
// index module's public MultiStepKnn with a timing ExactDistanceFn
// around every refinement (and every store Get inside it). Answers must
// match the wire's, then the direct calls'. Shards are appended to
// *knn_out and *ms_out.
void ReplayMisses(const Stack& stack,
                  const std::vector<const WireRecord*>& replay,
                  const std::vector<uint32_t>& request_ids,
                  std::vector<ReplayShard>* knn_out,
                  std::vector<ReplayShard>* ms_out) {
  const QueryEngine& engine = stack.base->engine();
  const CadDatabase& oracle = stack.oracle_db;
  std::vector<std::vector<Neighbor>> direct(replay.size());
  for (ReplayShard& s : Replay(
           replay.size(), [&](size_t i, ReplayShard* shard, uint8_t worker) {
             const WireRecord& r = *replay[i];
             const uint64_t t0 = NowNs();
             direct[i] = engine.Knn(QueryStrategy::kVectorSetFilter,
                                    oracle.object(r.id), kK);
             const uint64_t t1 = NowNs();
             shard->spans.push_back(
                 {kCoreKnn, 2, -1, request_ids[i], t0, t1, worker});
             shard->root_s += static_cast<double>(t1 - t0) * 1e-9;
             if (direct[i] != r.neighbors) ++shard->mismatches;
           })) {
    knn_out->push_back(std::move(s));
  }

  const VectorSetStore* store = stack.base->store();
  const CadDatabase& served = stack.base->db();
  const double filter_scale =
      static_cast<double>(served.options().num_covers);
  for (ReplayShard& s : Replay(
           replay.size(), [&](size_t i, ReplayShard* shard, uint8_t worker) {
             const uint32_t request = request_ids[i];
             const ObjectRepr& query = oracle.object(replay[i]->id);
             std::vector<Span>& spans = shard->spans;
             const int32_t root = static_cast<int32_t>(spans.size());
             spans.push_back({kIndexMultiStep, 3, -1, request, 0, 0, worker});
             const ExactDistanceFn exact = [&](int id, IoStats* stats) {
               const int32_t me = static_cast<int32_t>(spans.size());
               spans.push_back(
                   {kDistanceExact, 3, root, request, NowNs(), 0, worker});
               double d = std::numeric_limits<double>::infinity();
               if (store != nullptr) {
                 const uint64_t g0 = NowNs();
                 StatusOr<VectorSet> set = store->Get(id, stats);
                 spans.push_back(
                     {kStorageGet, 3, me, request, g0, NowNs(), worker});
                 ++shard->get_calls;
                 if (set.ok()) {
                   d = VectorSetDistance(query.vector_set, *set);
                 } else {
                   ++shard->get_failures;
                 }
               } else {
                 const ObjectRepr& candidate = served.object(id);
                 if (stats != nullptr) {
                   stats->AddPageAccesses(1);
                   stats->AddBytesRead(candidate.VectorSetBytes());
                 }
                 d = VectorSetDistance(query.vector_set, candidate.vector_set);
               }
               ++shard->exact_calls;
               spans[me].end_ns = NowNs();
               return d;
             };
             IoStats io;
             MultiStepStats ms;
             spans[root].start_ns = NowNs();
             const std::vector<Neighbor> rebuilt =
                 MultiStepKnn(engine.centroid_index(), query.centroid,
                              filter_scale, kK, exact, &io, &ms);
             spans[root].end_ns = NowNs();
             shard->root_s += static_cast<double>(spans[root].end_ns -
                                                  spans[root].start_ns) *
                              1e-9;
             shard->filter_hits += ms.filter_hits;
             shard->refined += ms.candidates_refined;
             if (rebuilt != direct[i]) ++shard->mismatches;
           })) {
    ms_out->push_back(std::move(s));
  }
}

// The traced run alternates, kTraceChunks times: an untraced
// sub-window (the tracing-overhead baseline), a traced sub-window over
// the wire, and the in-process replay of that sub-window's misses.
// Interleaving keeps the host's speed drift -- which moves throughput by
// 10-40 % over minutes on a shared machine -- the same on every side of
// each comparison.
void TracedRun(const Args& args, Stack& stack,
               std::vector<std::unique_ptr<Connection>>& conns,
               Swapper* swapper, Report* report) {
  constexpr int kTraceChunks = 10;
  const LayerBuildTimes builds = TimeLayerBuilds(args, stack);
  const double clock_read_s = ClockReadSeconds();
  // Untraced and traced sub-windows together take --seconds.
  const double chunk_s = args.seconds / (2 * kTraceChunks);
  const size_t chunk_replay_cap = kReplayCap / kTraceChunks;

  const VectorSetStore* store = stack.base->store();
  auto pool_stats = [store]() {
    return store != nullptr ? store->pool().Stats()
                            : cache::PoolStatsSnapshot{};
  };
  std::vector<WindowResult> wires;
  wires.reserve(kTraceChunks);  // records stay put: replay points at them
  std::vector<const WireRecord*> records;  // by global request index
  std::vector<const WireRecord*> all_replay;
  std::vector<Span> wire_spans;
  std::vector<ReplayShard> knn_shards, ms_shards;
  double plain_completed = 0.0, plain_elapsed = 0.0;
  double wire_completed = 0.0, wire_elapsed = 0.0;
  double rtt_sum = 0.0, latency_sum = 0.0, outside_sum = 0.0, cpu_sum = 0.0;
  double rep_rtt = 0.0, rep_latency = 0.0, rep_cpu = 0.0;
  size_t hits = 0;
  uint64_t pool_hits = 0, pool_misses = 0;
  uint64_t replay_pool_hits = 0, replay_pool_fetches = 0;
  uint64_t net_requests = 0, coalesced = 0;
  for (int chunk = 0; chunk < kTraceChunks; ++chunk) {
    const WindowResult plain = RunWindow(conns, swapper, chunk_s, false, 0);
    plain_completed += static_cast<double>(plain.completed);
    plain_elapsed += plain.elapsed_s;
    report->attempted += plain.attempted;
    report->failed += plain.failed;

    const cache::PoolStatsSnapshot pool0 = pool_stats();
    const net::ServerStats net0 = stack.server->stats();
    wires.push_back(
        RunWindow(conns, swapper, chunk_s, true, chunk_replay_cap));
    const net::ServerStats net1 = stack.server->stats();
    const cache::PoolStatsSnapshot pool1 = pool_stats();
    const WindowResult& wire = wires.back();
    wire_completed += static_cast<double>(wire.completed);
    wire_elapsed += wire.elapsed_s;
    report->attempted += wire.attempted;
    report->failed += wire.failed;
    pool_hits += pool1.hits() - pool0.hits();
    pool_misses += pool1.misses - pool0.misses;
    net_requests += net1.requests_received - net0.requests_received;
    coalesced += net1.coalesced_writes - net0.coalesced_writes;

    std::vector<const WireRecord*> replay;
    std::vector<uint32_t> request_ids;
    for (const WireRecord& r : wire.records) {
      const uint32_t request = static_cast<uint32_t>(records.size());
      records.push_back(&r);
      wire_spans.push_back({kNetRoundTrip, 1, -1, request, r.send_ns,
                            r.recv_ns, static_cast<uint8_t>(r.conn)});
      rtt_sum += static_cast<double>(r.recv_ns - r.send_ns) * 1e-9;
      latency_sum += r.latency_s;
      outside_sum += r.latency_s - r.cpu_s;
      cpu_sum += r.cpu_s;
      if (r.cache_hit) {
        ++hits;
      } else if (replay.size() < chunk_replay_cap && !r.neighbors.empty()) {
        replay.push_back(&r);
        request_ids.push_back(request);
        rep_rtt += static_cast<double>(r.recv_ns - r.send_ns) * 1e-9;
        rep_latency += r.latency_s;
        rep_cpu += r.cpu_s;
      }
    }
    const cache::PoolStatsSnapshot pool2 = pool_stats();
    ReplayMisses(stack, replay, request_ids, &knn_shards, &ms_shards);
    const cache::PoolStatsSnapshot pool3 = pool_stats();
    replay_pool_hits += pool3.hits() - pool2.hits();
    replay_pool_fetches +=
        pool3.hits() - pool2.hits() + pool3.misses - pool2.misses;
    all_replay.insert(all_replay.end(), replay.begin(), replay.end());
  }
  const double plain_qps = plain_completed / plain_elapsed;
  const double wire_qps = wire_completed / wire_elapsed;

  double knn_s = 0.0, multistep_s = 0.0;
  size_t filter_hits = 0, refined = 0, exact_calls = 0, get_calls = 0;
  uint64_t mismatches = 0, get_failures = 0;
  std::vector<double> self(kSpanNameCount, 0.0);
  for (const ReplayShard& s : knn_shards) {
    knn_s += s.root_s;
    mismatches += s.mismatches;
  }
  for (const ReplayShard& s : ms_shards) {
    multistep_s += s.root_s;
    filter_hits += s.filter_hits;
    refined += s.refined;
    exact_calls += s.exact_calls;
    get_calls += s.get_calls;
    mismatches += s.mismatches;
    get_failures += s.get_failures;
    const std::vector<double> shard_self = SelfSeconds(s.spans);
    for (size_t n = 0; n < self.size(); ++n) self[n] += shard_self[n];
  }
  report->attempted += 2 * all_replay.size();
  report->failed += mismatches + get_failures;
  if (mismatches + get_failures > 0) {
    std::fprintf(stderr,
                 "replay mismatch: %llu answers differ, %llu store gets "
                 "failed\n",
                 static_cast<unsigned long long>(mismatches),
                 static_cast<unsigned long long>(get_failures));
  }

  const NetCodecTimes codec = TimeCodec(all_replay);
  if (!codec.ok) {
    ++report->failed;
    std::fprintf(stderr, "codec round trip failed\n");
  }

  // Layer self times per replayed request (seconds). The server-side
  // layers come from the server's own timers on the wire; the engine
  // layers from the in-process replays of the same requests.
  const double requests = std::max(1.0, static_cast<double>(records.size()));
  const double nrep = std::max(1.0, static_cast<double>(all_replay.size()));
  const double net_self = (rep_rtt - rep_latency) / nrep;
  const double service_self = (rep_latency - rep_cpu) / nrep;
  const double core_self = (knn_s - multistep_s) / nrep;
  const double index_self = self[kIndexMultiStep] / nrep;
  const double distance_self = self[kDistanceExact] / nrep;
  const double storage_self = self[kStorageGet] / nrep;
  const double request_time = rep_rtt / nrep;
  const double self_total = net_self + service_self + core_self + index_self +
                            distance_self + storage_self;
  const double unaccounted_pct =
      request_time > 0 ? 100.0 * (request_time - self_total) / request_time
                       : 0.0;
  const uint64_t pool_fetches = pool_hits + pool_misses;
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };

  auto add = [&](const std::string& name, double value,
                 const std::string& unit) {
    report->metrics.push_back({name, value, unit});
  };
  add("features.extract_s", stack.extract_s, "s");
  add("core.engine_build_s", builds.engine_build_s, "s");
  add("index.xtree_build_s", builds.xtree_s, "s");
  add("index.mtree_build_s", builds.mtree_s, "s");
  add("storage.store_build_s", builds.store_build_s, "s");
  add("core.knn_us", 1e6 * knn_s / nrep, "us");
  add("index.filter_us", 1e6 * index_self, "us");
  add("distance.refine_us", 1e6 * distance_self, "us");
  add("distance.match_us",
      1e6 * ratio(self[kDistanceExact], static_cast<double>(exact_calls)),
      "us");
  add("index.filter_hits_per_query", static_cast<double>(filter_hits) / nrep,
      "count");
  add("distance.refined_per_query", static_cast<double>(refined) / nrep,
      "count");
  add("index.useful_ratio",
      ratio(static_cast<double>(kK * all_replay.size()),
            static_cast<double>(refined)),
      "ratio");
  add("storage.get_us",
      1e6 * ratio(self[kStorageGet], static_cast<double>(get_calls)), "us");
  add("cache.pool_hit_ratio",
      ratio(static_cast<double>(pool_hits), static_cast<double>(pool_fetches)),
      "ratio");
  add("cache.pool_misses_per_query",
      static_cast<double>(pool_misses) / requests, "count");
  add("service.latency_us", 1e6 * latency_sum / requests, "us");
  add("service.outside_engine_us", 1e6 * outside_sum / requests, "us");
  add("service.cache_hit_ratio", static_cast<double>(hits) / requests,
      "ratio");
  add("net.overhead_us", 1e6 * (rtt_sum - latency_sum) / requests, "us");
  add("net.encode_us", 1e6 * codec.encode_s, "us");
  add("net.decode_us", 1e6 * codec.decode_s, "us");
  add("net.coalesced_writes_per_request",
      ratio(static_cast<double>(coalesced), static_cast<double>(net_requests)),
      "count");
  add("trace.overhead_pct", 100.0 * ratio(plain_qps - wire_qps, plain_qps),
      "%");
  add("trace.unaccounted_pct", unaccounted_pct, "%");

  // The per-layer table: self time per request, and every ratio with its
  // base.
  char line[512];
  auto note = [&](const char* fmt, auto... values) {
    std::snprintf(line, sizeof(line), fmt, values...);
    report->notes.push_back(line);
  };
  note("traced sub-windows: %zu requests in %.2f s (%zu cache hits); %zu "
       "misses replayed in process on %d threads",
       records.size(), wire_elapsed, hits, all_replay.size(), kConnections);
  note("all requests, us/req: round trip %.3f = net %.3f + service %.3f + "
       "server engine %.3f",
       1e6 * rtt_sum / requests, 1e6 * (rtt_sum - latency_sum) / requests,
       1e6 * outside_sum / requests, 1e6 * cpu_sum / requests);
  note("replayed requests, self time per request:");
  note("  %-9s %12s  %s", "layer", "us/req", "measured as");
  note("  %-9s %12.3f  client round trip - server latency", "net",
       1e6 * net_self);
  note("  %-9s %12.3f  server latency - server engine time", "service",
       1e6 * service_self);
  note("  %-9s %12.3f  direct Knn - rebuilt MultiStepKnn", "core",
       1e6 * core_self);
  note("  %-9s %12.3f  MultiStepKnn self time", "index", 1e6 * index_self);
  note("  %-9s %12.3f  exact-distance self time", "distance",
       1e6 * distance_self);
  note("  %-9s %12.3f  store Get time", "storage", 1e6 * storage_self);
  note("  %-9s %12.3f  sum of the layers", "total", 1e6 * self_total);
  note("  %-9s %12.3f  client round trip; unaccounted %.2f%%", "request",
       1e6 * request_time, unaccounted_pct);
  note("server engine time %.3f us vs direct Knn %.3f us per replayed "
       "request",
       1e6 * rep_cpu / nrep, 1e6 * knn_s / nrep);
  const double clock_reads =
      2.0 * static_cast<double>(all_replay.size() + exact_calls + get_calls);
  note("tracing cost: %.1f ns per clock read; the rebuilt path reads the "
       "clock %.1f times per query (%.3f us of its time)",
       1e9 * clock_read_s, clock_reads / nrep,
       1e6 * clock_read_s * clock_reads / nrep);
  note("index.useful_ratio = k*queries / refined = %d*%zu / %zu", kK,
       all_replay.size(), refined);
  note("index.filter_hits_per_query = %zu filter hits / %zu queries",
       filter_hits, all_replay.size());
  note("distance.match_us = %.1f us exact-distance self time / %zu calls",
       1e6 * self[kDistanceExact], exact_calls);
  note("storage.get_us = %.1f us / %zu gets", 1e6 * self[kStorageGet],
       get_calls);
  note("cache.pool_hit_ratio = %llu hits / %llu fetches over %zu requests "
       "(rebuilt replay: %llu / %llu)",
       static_cast<unsigned long long>(pool_hits),
       static_cast<unsigned long long>(pool_fetches), records.size(),
       static_cast<unsigned long long>(replay_pool_hits),
       static_cast<unsigned long long>(replay_pool_fetches));
  note("service.cache_hit_ratio = %zu hits / %zu requests", hits,
       records.size());
  note("net.coalesced_writes_per_request = %llu coalesced flushes / %llu "
       "requests",
       static_cast<unsigned long long>(coalesced),
       static_cast<unsigned long long>(net_requests));
  note("trace.overhead_pct: untraced %.1f q/s vs traced %.1f q/s", plain_qps,
       wire_qps);
  if (std::fabs(unaccounted_pct) > 10.0) {
    note("WARNING: layer self times miss the request time by %.2f%% (> 10%%)",
         unaccounted_pct);
  }

  const std::string trace_path = args.out_dir + "/" + args.workload_name +
                                 "_seed" + std::to_string(args.seed) +
                                 ".trace.json";
  std::vector<const std::vector<Span>*> groups = {&wire_spans};
  size_t span_count = wire_spans.size();
  for (const auto* shards : {&knn_shards, &ms_shards}) {
    for (const ReplayShard& s : *shards) {
      groups.push_back(&s.spans);
      span_count += s.spans.size();
    }
  }
  const uint64_t origin = records.empty() ? 0 : records.front()->send_ns;
  if (WriteTraceFile(trace_path, groups, records, origin)) {
    note("span file: %s (%zu spans in memory; those of requests < %zu "
         "written)",
         trace_path.c_str(), span_count, kWrittenTraceRequests);
  } else {
    note("span file: could not write %s", trace_path.c_str());
  }
}

// --- Untraced run ---------------------------------------------------------

// The measured window is cut into back-to-back sub-windows of about
// kSubWindowSeconds (long enough for at least one pass over the corpus
// on knn_disk), and every time metric is the median of its per-sub-window
// values: a burst of load from elsewhere on a shared host then moves a
// few sub-windows, not the result.
constexpr double kSubWindowSeconds = 2.0;

void EndToEndRun(const Args& args, double setup_s,
                 std::vector<std::unique_ptr<Connection>>& conns,
                 Swapper* swapper, Report* report) {
  const int windows =
      std::max(1, static_cast<int>(std::lround(args.seconds / kSubWindowSeconds)));
  std::vector<double> p50, p99, qps, cpu;
  double completed = 0.0, elapsed = 0.0;
  uint64_t attempted = 0, failed = 0;
  size_t samples = 0;
  for (int i = 0; i < windows; ++i) {
    WindowResult w =
        RunWindow(conns, swapper, args.seconds / windows, false, 0);
    attempted += w.attempted;
    failed += w.failed;
    completed += static_cast<double>(w.completed);
    elapsed += w.elapsed_s;
    samples += w.rtt_s.size();
    std::sort(w.rtt_s.begin(), w.rtt_s.end());
    p50.push_back(1e3 * Percentile(w.rtt_s, 0.50));
    p99.push_back(1e3 * Percentile(w.rtt_s, 0.99));
    qps.push_back(static_cast<double>(w.completed) / w.elapsed_s);
    cpu.push_back(1e3 * w.cpu_s /
                  std::max(1.0, static_cast<double>(w.completed)));
  }
  report->attempted += attempted;
  report->failed += failed;
  report->metrics.push_back({"setup_s", setup_s, "s"});
  report->metrics.push_back({"p50_ms", Median(p50), "ms"});
  report->metrics.push_back({"p99_ms", Median(p99), "ms"});
  report->metrics.push_back({"qps", Median(qps), "1/s"});
  report->metrics.push_back({"cpu_ms_per_query", Median(cpu), "ms"});
  report->metrics.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  char line[256];
  std::snprintf(line, sizeof(line),
                "window: %.0f completed of %llu attempted in %.2f s (%d "
                "sub-windows); %zu latency samples; failed_frac %.6g",
                completed, static_cast<unsigned long long>(attempted), elapsed,
                windows, samples,
                attempted > 0 ? static_cast<double>(failed) /
                                    static_cast<double>(attempted)
                              : 0.0);
  report->notes.push_back(line);
  auto range = [&](const char* name, std::vector<double> v) {
    std::sort(v.begin(), v.end());
    std::snprintf(line, sizeof(line),
                  "  %-16s sub-window min %.6g, q1 %.6g, median %.6g, q3 "
                  "%.6g, max %.6g",
                  name, v.front(), Quantile(v, 0.25), Median(v),
                  Quantile(v, 0.75), v.back());
    report->notes.push_back(line);
  };
  range("p50_ms", p50);
  range("p99_ms", p99);
  range("qps", qps);
  range("cpu_ms_per_query", cpu);
}

// --- Main -----------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload_name = value;
      if (value == "knn_ram") {
        args->workload = Workload::kKnnRam;
      } else if (value == "knn_disk") {
        args->workload = Workload::kKnnDisk;
      } else if (value == "hot_cached_reindex") {
        args->workload = Workload::kHotCachedReindex;
      } else {
        return false;
      }
      continue;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      args->trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (key == "--smoke") {
      const long smoke = std::strtol(value.c_str(), &end, 10);
      if (smoke == 1) {
        // A tiny corpus that runs in seconds; checks, not measurements.
        args->objects = 100;
        args->setups = 2;
        args->warmup_seconds = 0.2;
        args->hot_set = 16;
        args->swap_every = 300;
      } else if (smoke != 0) {
        return false;
      }
    } else if (key == "--out-dir") {
      args->out_dir = value;
      continue;
    } else if (key == "--work-dir") {
      args->work_dir = value;
      continue;
    } else if (key == "--commit") {
      args->commit = value;
      continue;
    } else {
      return false;
    }
    if (end == nullptr || *end != '\0' || value.empty()) return false;
  }
  return !args->workload_name.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

std::string MetaJson(const Args& args) {
  char host[256] = {0};
  if (gethostname(host, sizeof(host) - 1) != 0) std::strcpy(host, "unknown");
  return "{\"commit\": " + Quote(args.commit) + ", \"host\": " + Quote(host) +
         ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"kernels\": " + Quote(kernels::Active().name) +
         ", \"corpus\": \"aircraft\", \"corpus_seed\": " +
         std::to_string(kCorpusSeed) +
         ", \"objects\": " + std::to_string(args.objects) +
         ", \"workload\": " + Quote(args.workload_name) +
         ", \"seed\": " + std::to_string(args.seed) +
         ", \"seconds\": " + Num(args.seconds) +
         ", \"trace\": " + std::to_string(args.trace) +
         ", \"setups\": " + std::to_string(args.setups) +
         ", \"pool_pages\": " +
         std::to_string(args.workload == Workload::kKnnDisk ? kPoolPages : 0) +
         ", \"connections\": " + std::to_string(kConnections) +
         ", \"workers\": " + std::to_string(kWorkers) +
         ", \"reactor_threads\": " + std::to_string(kReactorThreads) +
         ", \"rotated_cpus\": " + std::to_string(AllowedCpus().size()) +
         ", \"result_cache\": " +
         (args.workload == Workload::kHotCachedReindex ? "true" : "false") +
         ", \"hot_set\": " +
         std::to_string(args.workload == Workload::kHotCachedReindex
                            ? args.hot_set
                            : 0) +
         ", \"swap_every\": " +
         std::to_string(args.workload == Workload::kHotCachedReindex
                            ? args.swap_every
                            : 0) +
         ", \"k\": " + std::to_string(kK) + "}";
}

int Run(const Args& args) {
  // Set up `setups` times; the last stack serves the run.
  // The traced run reports no setup time, so it sets up once.
  const int setups = args.trace == 1 ? 1 : args.setups;
  std::vector<double> setup_times;
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < setups; ++i) {
    stack.reset();
    StatusOr<std::unique_ptr<Stack>> built = BuildStack(args, i);
    if (!built.ok()) {
      std::fprintf(stderr, "setup failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    stack = std::move(built).value();
    setup_times.push_back(stack->total_s());
    std::printf("setup %d: %.3f s (generate %.3f, extract %.3f, build %.3f, "
                "start %.3f)\n",
                i + 1, stack->total_s(), stack->generate_s, stack->extract_s,
                stack->build_s, stack->start_s);
  }

  const std::vector<int> hot_ids = ChooseHotIds(args);
  std::vector<std::unique_ptr<Connection>> conns;
  for (int c = 0; c < kConnections; ++c) {
    conns.push_back(std::make_unique<Connection>(args, hot_ids, c));
    StatusOr<net::Client> client =
        net::Client::Connect("127.0.0.1", stack->server->port());
    if (!client.ok()) {
      std::fprintf(stderr, "connect failed: %s\n",
                   client.status().ToString().c_str());
      return 1;
    }
    conns.back()->client = std::move(client).value();
  }
  Swapper swapper(args, stack.get());

  Report report;
  const WindowResult warm =
      RunWindow(conns, &swapper, args.warmup_seconds, false, 0);
  report.attempted += warm.attempted;
  report.failed += warm.failed;
  if (args.trace == 0) {
    EndToEndRun(args, Median(setup_times), conns, &swapper, &report);
  } else {
    TracedRun(args, *stack, conns, &swapper, &report);
  }
  for (auto& c : conns) c->client.Close();

  // Cross-connection consistency, then the brute-force oracle.
  std::unordered_map<int, std::vector<Neighbor>> answers;
  uint64_t mismatched = 0;
  for (auto& c : conns) {
    mismatched += c->mismatched;
    for (auto& [id, neighbors] : c->answers) {
      auto [it, inserted] = answers.emplace(id, neighbors);
      if (!inserted && it->second != neighbors) {
        ++mismatched;
        ++report.failed;
      }
    }
  }
  size_t checked = 0;
  const uint64_t oracle_bad =
      RunOracle(args, stack->oracle_db, answers, &checked);
  report.attempted += checked;
  report.failed += oracle_bad;
  {
    std::lock_guard<std::mutex> lock(swapper.mu);
    report.failed += swapper.swap_failures;
  }
  // Every inconsistency, oracle mismatch and failed swap is counted in
  // `failed` above.
  report.correct = report.failed == 0;
  char line[256];
  std::snprintf(line, sizeof(line),
                "checks: %zu distinct ids answered, %llu inconsistent "
                "answers, oracle %llu/%zu mismatches, %llu snapshot swaps",
                answers.size(), static_cast<unsigned long long>(mismatched),
                static_cast<unsigned long long>(oracle_bad), checked,
                static_cast<unsigned long long>(swapper.swaps));
  report.notes.push_back(line);
  stack.reset();

  const std::string meta = MetaJson(args);
  const std::string metrics = MetricsJson(report.metrics);
  std::printf("meta: %s\n", meta.c_str());
  for (const std::string& note : report.notes) {
    std::printf("%s\n", note.c_str());
  }
  for (const Metric& m : report.metrics) {
    std::printf("%-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const std::string result =
      "{\"correct\": " + std::string(report.correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(report.attempted) +
      ", \"failed\": " + std::to_string(report.failed) +
      ", \"metrics\": " + metrics + "}";

  // The full record: metadata, setup breakdown, notes and the result.
  const std::string record_path = args.out_dir + "/" + args.workload_name +
                                  "_seed" + std::to_string(args.seed) +
                                  "_trace" + std::to_string(args.trace) +
                                  ".json";
  if (std::FILE* f = std::fopen(record_path.c_str(), "w")) {
    std::string setups = "[";
    for (size_t i = 0; i < setup_times.size(); ++i) {
      setups += (i == 0 ? "" : ", ") + Num(setup_times[i]);
    }
    std::string notes = "[";
    for (size_t i = 0; i < report.notes.size(); ++i) {
      notes += (i == 0 ? "" : ", ") + Quote(report.notes[i]);
    }
    std::fprintf(f,
                 "{\"meta\": %s,\n \"setup_s_each\": %s],\n \"notes\": %s],\n"
                 " \"result\": %s}\n",
                 meta.c_str(), setups.c_str(), notes.c_str(), result.c_str());
    std::fclose(f);
  } else {
    std::fprintf(stderr, "cannot write %s\n", record_path.c_str());
  }
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: servebench --workload knn_ram|knn_disk|"
                 "hot_cached_reindex --seed N --seconds S --trace 0|1\n"
                 "  [--smoke 0|1] [--out-dir DIR] [--work-dir DIR] "
                 "[--commit ID]\n");
    return 2;
  }
  return Run(args);
}
