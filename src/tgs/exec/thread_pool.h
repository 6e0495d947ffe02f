// Fixed-size worker pool with a FIFO work queue -- the execution substrate
// of the experiment engine.
//
// Design: one mutex + two condition variables (one woken per submitted
// task, one broadcast on quiescence). Tasks are plain std::function<void()>
// thunks; anything a task throws is swallowed after being counted, because
// a benchmark sweep must not die half-way through thousands of jobs --
// callers that care report errors through their own result channel (see
// exec/result_sink.h).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace tgs {

class ThreadPool {
 public:
  /// Starts `num_threads` workers; values < 1 are clamped to 1.
  explicit ThreadPool(int num_threads);

  /// Shuts down (draining any queued work) and joins.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task. Throws std::runtime_error once shutdown() has begun.
  void submit(std::function<void()> task);

  /// Block until every task submitted so far has finished and the queue is
  /// empty. More work may be submitted afterwards.
  void wait_idle();

  /// Stop accepting new work, finish everything already queued, join the
  /// workers. Idempotent; called by the destructor.
  void shutdown() { stop(/*drain=*/true); }

  /// Graceful shutdown with a load-shedding option. drain=true behaves like
  /// shutdown(); drain=false discards tasks that no worker has started yet,
  /// finishes only the in-flight ones, and joins. A serving daemon uses
  /// drain=false so a long backlog cannot stall its exit. Idempotent.
  void stop(bool drain);

  int size() const { return static_cast<int>(workers_.size()); }

  /// Tasks admitted but not yet finished: queued + currently running. The
  /// honest backpressure figure a server should report.
  std::size_t queue_depth() const;

  /// Tasks whose thunk threw (the exception is dropped).
  std::size_t tasks_failed() const;

 private:
  void worker_loop();

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // signalled per submitted task
  std::condition_variable idle_cv_;  // broadcast when the pool quiesces
  std::queue<std::function<void()>> queue_;
  std::size_t active_ = 0;
  std::size_t failed_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace tgs
