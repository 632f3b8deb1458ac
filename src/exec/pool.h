// Thread pool for the experiment-execution engine.
//
// The paper's evaluation grid (topology x mode x workload x seed) and the
// hot loops beneath it (per-pair Yen's runs, (m, n) profiling cells) are
// embarrassingly parallel. parallel_for (exec/parallel.h) balances them: it
// submits one shard task per worker and the shards claim loop indices from
// a shared counter. So this pool only hands tasks to free threads: one
// mutex-guarded FIFO, served by workers that block while it is empty.
// Tasks run in any order on any thread; determinism comes from the
// parallel_map layer, which stores results by index and derives each
// task's RNG stream from (base_seed, task_index).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/sink.h"

namespace flattree::exec {

class ThreadPool {
 public:
  using Task = std::function<void()>;

  // Spawns `threads` workers (at least 1). The pool is ready immediately.
  // Throws std::invalid_argument above kMaxThreads, starting none; if a
  // thread fails to start, the ones started are joined before the
  // exception leaves.
  explicit ThreadPool(std::size_t threads);

  // Joins all workers after draining queued tasks.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  // Appends a task to the queue. Throws std::runtime_error after shutdown
  // has begun.
  void submit(Task task);

  // Runs queued tasks on the calling thread until `done` returns true,
  // sleeping while the queue is empty, so a fork-join caller works instead
  // of blocking (and nested parallelism cannot deadlock). `done` must turn
  // true only through this pool's tasks finishing: it is re-checked under
  // the pool's lock after each one, so no finish is missed before a sleep.
  void help_while(const std::function<bool()>& done);

  // The most worker threads a pool is asked for: far above the core count
  // of any host these experiments run on, far below what exhausts an OS's
  // thread table.
  static constexpr std::size_t kMaxThreads = 1024;

  // Number of threads to use for `requested` (0 = one per hardware core,
  // at most kMaxThreads). Throws std::invalid_argument when `requested` is
  // above kMaxThreads; nothing is started either way.
  [[nodiscard]] static std::size_t resolve_threads(std::size_t requested);

  // Registers exec.pool.tasks, kDiagnostic: the shard count depends on the
  // thread count, so it is in the text summary, never the metrics JSON.
  // Safe to call while workers are running (the handle is an atomic).
  void attach_obs(const obs::ObsSink& sink);

 private:
  // Runs the oldest task with `lock` released, then relocks and wakes the
  // helpers, whose `done` may have turned true.
  void run_front(std::unique_lock<std::mutex>& lock);
  void worker_loop();
  // Stops the workers once the queue is drained, and joins them.
  void stop_and_join();

  std::mutex mutex_;
  std::condition_variable work_cv_;    // workers: a task or shutdown
  std::condition_variable helper_cv_;  // helpers: a task queued or finished
  std::deque<Task> queue_;
  std::vector<std::thread> workers_;
  bool stopping_{false};
  std::atomic<obs::Counter*> c_tasks_{nullptr};
};

}  // namespace flattree::exec
