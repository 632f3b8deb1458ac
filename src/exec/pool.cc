#include "exec/pool.h"

#include <stdexcept>

namespace flattree::exec {

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t count = threads == 0 ? 1 : threads;
  workers_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock{mutex_};
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::attach_obs(const obs::ObsSink& sink) {
  obs::MetricsRegistry* reg = sink.metrics();
  c_tasks_.store(reg != nullptr ? &reg->counter("exec.pool.tasks",
                                                obs::MetricScope::kDiagnostic)
                                : nullptr,
                 std::memory_order_relaxed);
}

std::size_t ThreadPool::resolve_threads(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void ThreadPool::submit(Task task) {
  {
    std::lock_guard lock{mutex_};
    if (stopping_) {
      throw std::runtime_error("ThreadPool::submit: pool is shutting down");
    }
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
  // A helper may be the only free thread: every worker can be inside a
  // nested fork-join, waiting in help_while itself.
  helper_cv_.notify_all();
}

void ThreadPool::run_front(std::unique_lock<std::mutex>& lock) {
  Task task = std::move(queue_.front());
  queue_.pop_front();
  lock.unlock();
  obs::add(c_tasks_.load(std::memory_order_relaxed));
  task();
  task = nullptr;  // release the captures before anyone is told it is done
  lock.lock();
  helper_cv_.notify_all();
}

void ThreadPool::worker_loop() {
  std::unique_lock lock{mutex_};
  for (;;) {
    work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopping, and the queue is drained
    run_front(lock);
  }
}

void ThreadPool::help_while(const std::function<bool()>& done) {
  std::unique_lock lock{mutex_};
  while (!done()) {
    if (queue_.empty()) {
      helper_cv_.wait(lock);
    } else {
      run_front(lock);
    }
  }
}

}  // namespace flattree::exec
