// Fixed-size worker pool with a parallel-for helper.
//
// Users of ThreadPool::global(), each running items that are independent
// and write only their own slots, so results stay deterministic regardless
// of worker count or interleaving:
//   - ml: random-forest trees (one Rng stream per tree) and the presorted
//     column scans of tree/GBT training;
//   - exp::collect_training_data: one collection configuration's
//     nodes x repeats samples;
//   - exp::evaluate_methods: one scenario's ranking environment and its
//     counterfactual runs;
//   - core::Trainer::train_and_evaluate: holdout scoring in row blocks.
// Merging, FP sums, progress callbacks and trace spans stay on the calling
// thread. On single-core hosts the pool degrades gracefully to sequential
// execution.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace lts {

class ThreadPool {
 public:
  /// `num_threads == 0` selects hardware_concurrency (minimum 1).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueues a task; the future resolves when it finishes.
  std::future<void> submit(std::function<void()> task);

  /// Runs fn(i) for i in [0, n), blocking until all complete. Exceptions
  /// from tasks are rethrown (first one wins). Safe to call from inside a
  /// task running on this same pool: nested calls execute inline on the
  /// calling worker instead of deadlocking on helpers that could never be
  /// scheduled.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Process-wide shared pool for library internals.
  static ThreadPool& global();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::packaged_task<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace lts
