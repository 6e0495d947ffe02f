#include "tgs/exec/thread_pool.h"

#include <algorithm>
#include <stdexcept>

namespace tgs {

ThreadPool::ThreadPool(int num_threads) {
  const int n = std::max(1, num_threads);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) throw std::runtime_error("ThreadPool: submit after shutdown");
    queue_.push(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::stop(bool drain) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ && workers_.empty()) return;
    stopping_ = true;
    if (!drain) std::queue<std::function<void()>>().swap(queue_);
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();
  // Everything is done (or dropped): release wait_idle() callers, who would
  // otherwise sleep forever if the queue was discarded under them.
  idle_cv_.notify_all();
}

std::size_t ThreadPool::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size() + active_;
}

std::size_t ThreadPool::tasks_failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failed_;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop();
      ++active_;
    }
    bool threw = false;
    try {
      task();
    } catch (...) {
      threw = true;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
      if (threw) ++failed_;
      if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
    }
  }
}

}  // namespace tgs
