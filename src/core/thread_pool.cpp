#include "core/thread_pool.hpp"

namespace gnntrans::core {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads <= 1) return;
  workers_.reserve(threads);
  for (std::size_t w = 0; w < threads; ++w)
    workers_.emplace_back([this, w] { worker_loop(w); });
}

ThreadPool::~ThreadPool() {
  {
    std::scoped_lock lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::parallel_for(std::size_t n, const Task& task) {
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    for (std::size_t i = 0; i < n; ++i) task(i, 0);
    return;
  }

  std::unique_lock lock(mutex_);
  done_cv_.wait(lock, [&] { return !busy_; });  // serialize concurrent callers
  busy_ = true;
  task_ = &task;
  task_count_ = n;
  next_.store(0, std::memory_order_relaxed);
  active_ = workers_.size();
  error_ = nullptr;
  ++generation_;
  work_cv_.notify_all();

  done_cv_.wait(lock, [&] { return active_ == 0; });
  task_ = nullptr;
  busy_ = false;
  const std::exception_ptr error = error_;
  error_ = nullptr;
  lock.unlock();
  done_cv_.notify_all();  // admit the next waiting caller
  if (error) std::rethrow_exception(error);
}

void ThreadPool::worker_loop(std::size_t worker) {
  std::uint64_t seen = 0;
  std::unique_lock lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    const Task* task = task_;
    const std::size_t count = task_count_;
    lock.unlock();

    for (;;) {
      const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) break;
      try {
        (*task)(i, worker);
      } catch (...) {
        std::scoped_lock error_lock(mutex_);
        if (!error_) error_ = std::current_exception();
        // Abandon unclaimed indices; in-flight calls on other workers finish.
        next_.store(count, std::memory_order_relaxed);
      }
    }

    lock.lock();
    if (--active_ == 0) done_cv_.notify_all();
  }
}

}  // namespace gnntrans::core
