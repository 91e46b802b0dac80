#ifndef BDI_COMMON_THREAD_POOL_H_
#define BDI_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace bdi {

/// Fixed-size worker pool: the workers behind the shared Executor
/// (executor.h), which is what the pipeline's parallel stages call.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains queued work, then joins the workers.
  ~ThreadPool();

  /// Enqueues `fn`; returns a future completing when it has run.
  std::future<void> Submit(std::function<void()> fn);

  /// Runs fn(i) for i in [0, n), partitioned into contiguous chunks across
  /// the workers, and blocks until all complete. Safe to call with n == 0.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Number of worker threads (fixed at construction).
  size_t num_threads() const { return threads_.size(); }

 private:
  /// Per-worker run loop: pops queued tasks until shutdown drains.
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::packaged_task<void()>> queue_;
  bool shutting_down_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace bdi

#endif  // BDI_COMMON_THREAD_POOL_H_
