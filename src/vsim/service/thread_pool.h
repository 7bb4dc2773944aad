// A fixed-size worker pool with a task queue. The serving layer's
// QueryService schedules query execution on it; CadDatabase's parallel
// feature extraction and the benches reuse it for fan-out work that
// previously hand-rolled std::thread chunking.
#ifndef VSIM_SERVICE_THREAD_POOL_H_
#define VSIM_SERVICE_THREAD_POOL_H_

#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "vsim/common/thread_annotations.h"

namespace vsim {

class ThreadPool {
 public:
  // num_threads = 0 uses the hardware concurrency; the count is clamped
  // to [1, 64].
  explicit ThreadPool(int num_threads = 0);

  // Drains gracefully: every task already queued still runs before the
  // workers exit (so no future returned by Submit is ever abandoned).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  // Tasks queued but not yet picked up by a worker.
  size_t QueuedTasks() const EXCLUDES(mu_);

  // Schedules `task` for execution. The task hands over whatever it
  // produces itself (QueryService's requests end in a callback), so no
  // future's shared state is allocated for it.
  void Enqueue(std::function<void()> task) EXCLUDES(mu_);

  // Schedules `fn` for execution and returns a future for its result.
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    Enqueue([task]() { (*task)(); });
    return result;
  }

  // Runs fn(0) .. fn(n-1) across the pool and blocks until all
  // iterations finished. Indices are claimed one at a time from a
  // shared counter, so per-index results must not depend on which
  // thread runs which index. Must not be called from inside a pool
  // task (the caller would wait on workers it is occupying).
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  // Quiesce: workers finish their current task and stop dequeuing until
  // Resume(). Submissions while paused queue up normally. Used to drain
  // the service for admin operations and to make queue-full behavior
  // deterministic in tests.
  void Pause() EXCLUDES(mu_);
  void Resume() EXCLUDES(mu_);

 private:
  void WorkerLoop() EXCLUDES(mu_);

  mutable Mutex mu_{"service.thread_pool"};
  CondVar cv_;
  std::deque<std::function<void()>> tasks_ GUARDED_BY(mu_);
  bool stop_ GUARDED_BY(mu_) = false;
  bool paused_ GUARDED_BY(mu_) = false;
  // Written only by the constructor, joined only by the destructor;
  // between those points it is read-only (num_threads, ParallelFor).
  std::vector<std::thread> workers_;
};

}  // namespace vsim

#endif  // VSIM_SERVICE_THREAD_POOL_H_
