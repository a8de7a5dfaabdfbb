/// \file thread_pool.hpp
/// A reusable, fixed-size worker pool for batched inference
/// (WireTimingEstimator::estimate_batch) and the network server.
///
/// The pool exposes an indexed parallel_for whose callback receives a stable
/// worker id in [0, size()), which callers use to address per-worker resources
/// (activation slabs) without locking. The worker count is fixed at
/// construction.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace gnntrans::core {

/// Worker pool. Threads are started in the constructor and parked on a
/// condition variable between jobs, so per-call dispatch cost is two
/// notifications rather than thread creation.
class ThreadPool {
 public:
  /// Creates a pool of \p threads workers. With threads <= 1 no worker
  /// threads are started and parallel_for runs inline on the caller.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker count (1 for an inline pool).
  [[nodiscard]] std::size_t size() const noexcept {
    return workers_.empty() ? 1 : workers_.size();
  }

  using Task = std::function<void(std::size_t index, std::size_t worker)>;

  /// Runs task(i, worker) for every i in [0, n) and blocks until all calls
  /// complete. Indices are claimed dynamically (good load balance for uneven
  /// per-item cost). If a call throws, the first exception is rethrown here
  /// and remaining unclaimed indices are skipped. Safe to call from multiple
  /// threads (calls serialize); do not call from inside a task.
  void parallel_for(std::size_t n, const Task& task);

 private:
  void worker_loop(std::size_t worker);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_cv_;  ///< wakes workers for a new job
  std::condition_variable done_cv_;  ///< wakes callers on completion / free pool
  const Task* task_ = nullptr;
  std::size_t task_count_ = 0;
  std::atomic<std::size_t> next_{0};  ///< next unclaimed index
  std::size_t active_ = 0;            ///< workers still draining current job
  std::uint64_t generation_ = 0;      ///< bumped per job; workers wait on it
  bool busy_ = false;                 ///< a parallel_for is in flight
  bool stop_ = false;
  std::exception_ptr error_;
};

}  // namespace gnntrans::core
