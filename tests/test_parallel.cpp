// Tests for the shared ThreadPool.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "core/thread_pool.hpp"

namespace {

using namespace gnntrans;
using namespace gnntrans::core;

TEST(ThreadPool, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(n, [&](std::size_t i, std::size_t) { ++hits[i]; });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, WorkerIdsStayInRange) {
  ThreadPool pool(3);
  std::atomic<bool> ok{true};
  pool.parallel_for(500, [&](std::size_t, std::size_t worker) {
    if (worker >= pool.size()) ok = false;
  });
  EXPECT_TRUE(ok.load());
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(2);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(100, [&](std::size_t i, std::size_t) { sum += i; });
    EXPECT_EQ(sum.load(), 4950u) << "round " << round;
  }
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(64,
                                 [&](std::size_t i, std::size_t) {
                                   if (i == 17)
                                     throw std::runtime_error("task 17 failed");
                                 }),
               std::runtime_error);
  // The pool must survive a throwing job and serve the next one.
  std::atomic<int> count{0};
  pool.parallel_for(32, [&](std::size_t, std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPool, AllTasksThrowingStillTerminates) {
  // Every task throws on every worker: exactly one exception propagates, the
  // rest are swallowed, and parallel_for must still join (no deadlock from a
  // worker exiting its claim loop early).
  ThreadPool pool(4);
  std::atomic<int> started{0};
  EXPECT_THROW(pool.parallel_for(128,
                                 [&](std::size_t i, std::size_t) {
                                   ++started;
                                   throw std::runtime_error(
                                       "task " + std::to_string(i));
                                 }),
               std::runtime_error);
  EXPECT_GT(started.load(), 0);
  // The pool is still functional afterwards.
  std::atomic<int> count{0};
  pool.parallel_for(64, [&](std::size_t, std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, ExceptionMessageSurvivesPropagation) {
  ThreadPool pool(2);
  try {
    pool.parallel_for(8, [&](std::size_t i, std::size_t) {
      if (i == 5) throw std::runtime_error("net n5: injected forward fault");
    });
    FAIL() << "expected the task exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "net n5: injected forward fault");
  }
}

TEST(ThreadPool, ErrorStateClearsBetweenCalls) {
  // A throwing batch must not leave a stale exception_ptr behind: the next
  // clean batch returns normally instead of rethrowing the old error.
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(16,
                                 [](std::size_t, std::size_t) {
                                   throw std::logic_error("poison");
                                 }),
               std::logic_error);
  EXPECT_NO_THROW(pool.parallel_for(16, [](std::size_t, std::size_t) {}));
}

TEST(ThreadPool, RepeatedThrowingRoundsDoNotDeadlock) {
  // Alternate throwing and clean rounds to shake out lost-wakeup or
  // error-reset races between generations of parallel_for.
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    if (round % 2 == 0) {
      EXPECT_THROW(pool.parallel_for(32,
                                     [&](std::size_t i, std::size_t) {
                                       if (i % 3 == 0)
                                         throw std::runtime_error("boom");
                                     }),
                   std::runtime_error);
    } else {
      std::atomic<int> count{0};
      pool.parallel_for(32, [&](std::size_t, std::size_t) { ++count; });
      EXPECT_EQ(count.load(), 32);
    }
  }
}

TEST(ThreadPool, ZeroTasksAndInlineFallback) {
  ThreadPool pool(4);
  pool.parallel_for(0, [&](std::size_t, std::size_t) { FAIL(); });

  // threads <= 1 spawns no workers and runs inline on the caller.
  ThreadPool inline_pool(1);
  EXPECT_EQ(inline_pool.size(), 1u);
  int runs = 0;
  inline_pool.parallel_for(5, [&](std::size_t, std::size_t worker) {
    EXPECT_EQ(worker, 0u);
    ++runs;
  });
  EXPECT_EQ(runs, 5);
}

}  // namespace
