// Unit tests for the support::ThreadPool behind privanalyzerd's analysis
// workers: result ordering, exception propagation, size-1 == inline
// execution, and no-deadlock on empty / oversubscribed batches.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <numeric>
#include <vector>

#include "support/error.h"
#include "support/thread_pool.h"

namespace pa::support {
namespace {

TEST(ThreadPoolTest, HardwareThreadsNeverZero) {
  EXPECT_GE(ThreadPool::hardware_threads(), 1u);
}

TEST(ThreadPoolTest, ResultsLandAtTheirSubmissionIndex) {
  // Index-addressed results: completion order is arbitrary, placement is
  // not.
  constexpr int kTasks = 200;
  ThreadPool pool(4);
  std::vector<int> results(kTasks, -1);
  for (int i = 0; i < kTasks; ++i)
    pool.submit([&results, i] { results[static_cast<std::size_t>(i)] = i * i; });
  pool.wait_idle();
  for (int i = 0; i < kTasks; ++i)
    EXPECT_EQ(results[static_cast<std::size_t>(i)], i * i) << i;
}

TEST(ThreadPoolTest, SizeOneRunsTasksInSubmissionOrder) {
  // A pool of one worker is inline execution with extra steps: strict
  // submission order, one task at a time.
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::vector<int> order;
  for (int i = 0; i < 50; ++i)
    pool.submit([&order, i] { order.push_back(i); });  // no mutex needed: 1 worker
  pool.wait_idle();
  std::vector<int> expected(50);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPoolTest, ExceptionFromWorkerPropagatesToWaiter) {
  ThreadPool pool(2);
  std::atomic<int> completed{0};
  for (int i = 0; i < 10; ++i)
    pool.submit([&completed, i] {
      if (i == 3) throw Error("worker failure");
      ++completed;
    });
  EXPECT_THROW(pool.wait_idle(), Error);
  // The failure neither killed the worker nor poisoned the pool: the other
  // tasks ran and a fresh batch completes cleanly.
  EXPECT_EQ(completed.load(), 9);
  pool.submit([&completed] { ++completed; });
  EXPECT_NO_THROW(pool.wait_idle());
  EXPECT_EQ(completed.load(), 10);
}

TEST(ThreadPoolTest, WaitIdleOnEmptyBatchReturnsImmediately) {
  ThreadPool pool(4);
  pool.wait_idle();  // nothing submitted: must not deadlock
  pool.wait_idle();  // idempotent
}

TEST(ThreadPoolTest, OversubscribedPoolCompletes) {
  // Far more workers than tasks: idle workers must park, not spin or hang,
  // and destruction must join all of them.
  ThreadPool pool(32);
  std::atomic<int> ran{0};
  for (int i = 0; i < 4; ++i) pool.submit([&ran] { ++ran; });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 4);
}

TEST(ThreadPoolTest, ManyTinyTasksOnSmallPool) {
  ThreadPool pool(2);
  std::atomic<long> sum{0};
  constexpr int kTasks = 2000;
  for (int i = 0; i < kTasks; ++i) pool.submit([&sum, i] { sum += i; });
  pool.wait_idle();
  EXPECT_EQ(sum.load(), static_cast<long>(kTasks) * (kTasks - 1) / 2);
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int batch = 0; batch < 5; ++batch) {
    for (int i = 0; i < 20; ++i) pool.submit([&count] { ++count; });
    pool.wait_idle();
    EXPECT_EQ(count.load(), (batch + 1) * 20);
  }
}

TEST(ThreadPoolTest, DestructionDrainsPendingTasks) {
  // Submitted work is never dropped, even when the pool dies while the
  // queue is non-empty.
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 100; ++i) pool.submit([&ran] { ++ran; });
    // no wait_idle(): destructor must finish the queue before joining
  }
  EXPECT_EQ(ran.load(), 100);
}

}  // namespace
}  // namespace pa::support
