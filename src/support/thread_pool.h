// A small fixed-size thread pool: std::thread workers draining a
// mutex/condvar-protected task queue. No external dependencies.
//
// It runs privanalyzerd's analysis workers (daemon/server.h), but is
// generic: submit() any number of void() tasks, then wait_idle() for the
// batch. The first exception thrown by a task is captured and rethrown from
// wait_idle(), so worker failures surface on the calling thread exactly as
// they would under inline execution.
//
// A pool of size 1 degenerates to strictly ordered execution: tasks run one
// at a time in submission order, making the pool a drop-in replacement for
// an inline loop (tests/thread_pool_test.cpp pins this down).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pa::support {

class ThreadPool {
 public:
  /// Spawn `n_threads` workers; 0 means hardware_threads().
  explicit ThreadPool(unsigned n_threads = 0);

  /// Drains the queue (running remaining tasks) and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue one task. Safe from any thread, including from inside a task.
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished, then rethrow the first
  /// exception any task raised (if one did). The pool stays usable for
  /// further submit() / wait_idle() rounds afterwards.
  void wait_idle();

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// std::thread::hardware_concurrency(), never 0 (falls back to 1).
  static unsigned hardware_threads();

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable task_ready_;   // workers wait here for tasks
  std::condition_variable batch_done_;   // wait_idle() waits here
  std::deque<std::function<void()>> queue_;
  std::size_t in_flight_ = 0;  // queued + currently executing tasks
  std::exception_ptr first_error_;
  bool shutting_down_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace pa::support
