#include "support/thread_pool.h"

#include "support/faultpoint.h"

namespace pa::support {

unsigned ThreadPool::hardware_threads() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1u : n;
}

ThreadPool::ThreadPool(unsigned n_threads) {
  if (n_threads == 0) n_threads = hardware_threads();
  workers_.reserve(n_threads);
  for (unsigned i = 0; i < n_threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  task_ready_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  task_ready_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  batch_done_.wait(lock, [this] { return in_flight_ == 0; });
  if (first_error_) {
    std::exception_ptr err = first_error_;
    first_error_ = nullptr;  // one rethrow per failure
    std::rethrow_exception(err);
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_ready_.wait(lock,
                       [this] { return shutting_down_ || !queue_.empty(); });
      // Drain remaining tasks even during shutdown so no submitted work is
      // silently dropped.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    std::exception_ptr err;
    try {
      // Task boundary fault point: an injected failure here takes the same
      // capture/rethrow path as a task's own exception (never terminate()s
      // the worker), which the soak test relies on.
      PA_FAULTPOINT("thread_pool.task");
      task();
    } catch (...) {
      err = std::current_exception();
    }
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (err && !first_error_) first_error_ = err;
      if (--in_flight_ == 0) batch_done_.notify_all();
    }
  }
}

}  // namespace pa::support
