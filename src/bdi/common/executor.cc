#include "bdi/common/executor.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "bdi/common/metrics.h"

namespace bdi {

namespace {

// Loop-scheduling instruments (see docs/OBSERVABILITY.md): parallel
// dispatches, chunks claimed in total, and chunks claimed by pool helpers
// rather than the calling thread (the "stolen" share).
metrics::Counter& LoopsCounter() {
  static metrics::Counter* counter =
      metrics::Registry::Get().RegisterCounter("bdi.executor.parallel_loops");
  return *counter;
}

metrics::Counter& ChunksCounter() {
  static metrics::Counter* counter =
      metrics::Registry::Get().RegisterCounter("bdi.executor.chunks.claimed");
  return *counter;
}

metrics::Counter& StolenCounter() {
  static metrics::Counter* counter =
      metrics::Registry::Get().RegisterCounter("bdi.executor.chunks.stolen");
  return *counter;
}

// Queue instruments: helper tasks submitted to the workers, and the
// deepest the task queue has been.
metrics::Counter& TasksCounter() {
  static metrics::Counter* counter =
      metrics::Registry::Get().RegisterCounter("bdi.executor.tasks.submitted");
  return *counter;
}

metrics::Gauge& QueueDepthGauge() {
  static metrics::Gauge* gauge =
      metrics::Registry::Get().RegisterGauge("bdi.executor.queue.depth");
  return *gauge;
}

/// True while the current thread is executing a parallel-loop body; nested
/// loops then degrade to inline serial execution (see class comment).
thread_local bool tls_in_parallel_region = false;

std::atomic<size_t> g_requested_threads{0};
std::atomic<bool> g_pool_created{false};

size_t DefaultThreads() {
  unsigned hc = std::thread::hardware_concurrency();
  size_t hardware = hc > 0 ? hc : 1;
  size_t requested = g_requested_threads.load();
  if (requested == 0) {
    if (const char* env = std::getenv("BDI_NUM_THREADS")) {
      long v = std::strtol(env, nullptr, 10);
      if (v > 0) requested = static_cast<size_t>(v);
    }
  }
  // Clamp to the hardware: every loop on this pool is CPU-bound, so
  // workers beyond the core count only add context switches (the seed's
  // 8-thread linkage bench was *slower* than serial on a 1-core box for
  // exactly this reason).
  if (requested > 0) return std::min(requested, hardware);
  return hardware;
}

void SerialRanges(size_t n, const std::function<void(size_t, size_t)>& fn) {
  if (n > 0) fn(0, n);
}

}  // namespace

Executor::Executor(size_t num_threads) {
  num_threads = std::max<size_t>(1, num_threads);
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) {
    t.join();
  }
}

std::future<void> Executor::Submit(std::function<void()> fn) {
  std::packaged_task<void()> task(std::move(fn));
  std::future<void> future = task.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    if (metrics::Enabled()) {
      TasksCounter().Add();
      QueueDepthGauge().SetMax(static_cast<int64_t>(queue_.size()));
    }
  }
  cv_.notify_one();
  return future;
}

void Executor::WorkerLoop() {
  while (true) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) {
        // shutting_down_ must be true; drain is complete.
        return;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

Executor& Executor::Get() {
  static Executor instance(DefaultThreads());
  g_pool_created.store(true);
  return instance;
}

bool Executor::Configure(size_t num_threads) {
  if (g_pool_created.load()) return false;
  g_requested_threads.store(num_threads);
  return true;
}

void Executor::ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                           size_t max_parallelism) {
  ParallelForRanges(
      n,
      [&fn](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) fn(i);
      },
      max_parallelism);
}

void Executor::ParallelForRanges(size_t n,
                                 const std::function<void(size_t, size_t)>& fn,
                                 size_t max_parallelism, size_t min_chunk) {
  if (n == 0) return;
  size_t workers = threads_.size();
  if (max_parallelism > 0) workers = std::min(workers, max_parallelism);
  if (workers <= 1 || n < 2 || tls_in_parallel_region) {
    SerialRanges(n, fn);
    return;
  }

  // Chunk small enough for load balance (several chunks per worker), large
  // enough to amortize the atomic claim.
  size_t chunk = std::max(min_chunk, n / (workers * 8));
  std::atomic<size_t> cursor{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_exception;
  std::mutex exception_mu;

  if (metrics::Enabled()) LoopsCounter().Add();

  auto drain = [&](bool is_helper) {
    bool saved = tls_in_parallel_region;
    tls_in_parallel_region = true;
    size_t claimed = 0;
    while (!failed.load(std::memory_order_relaxed)) {
      size_t begin = cursor.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= n) break;
      size_t end = std::min(n, begin + chunk);
      ++claimed;
      try {
        fn(begin, end);
      } catch (...) {
        std::lock_guard<std::mutex> lock(exception_mu);
        if (!first_exception) first_exception = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
    tls_in_parallel_region = saved;
    if (claimed > 0 && metrics::Enabled()) {
      ChunksCounter().Add(claimed);
      if (is_helper) StolenCounter().Add(claimed);
    }
  };

  // The calling thread participates; helpers join from the pool. If the
  // pool is saturated a helper may start late or find no chunks left —
  // correctness never depends on helpers arriving.
  size_t helpers = std::min(workers - 1, (n + chunk - 1) / chunk - 1);
  std::vector<std::future<void>> futures;
  futures.reserve(helpers);
  for (size_t h = 0; h < helpers; ++h) {
    futures.push_back(Submit([&drain] { drain(true); }));
  }
  drain(false);
  for (auto& f : futures) f.get();
  if (first_exception) std::rethrow_exception(first_exception);
}

void ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                 size_t max_parallelism) {
  if (max_parallelism == 1 || n < 2) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  Executor::Get().ParallelFor(n, fn, max_parallelism);
}

void ParallelForRanges(size_t n, const std::function<void(size_t, size_t)>& fn,
                       size_t max_parallelism, size_t min_chunk) {
  if (max_parallelism == 1 || n < 2) {
    SerialRanges(n, fn);
    return;
  }
  Executor::Get().ParallelForRanges(n, fn, max_parallelism, min_chunk);
}

}  // namespace bdi
