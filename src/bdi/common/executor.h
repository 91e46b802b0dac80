#ifndef BDI_COMMON_EXECUTOR_H_
#define BDI_COMMON_EXECUTOR_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace bdi {

/// Process-wide execution substrate: one lazily-initialized shared pool of
/// worker threads behind chunked, work-stealing parallel loops (see
/// DESIGN.md, "execution substrate"). Every parallel stage in the pipeline —
/// blocking, pairwise matching, fusion EM loops, copy detection — runs on
/// this pool instead of constructing and joining a private pool per call;
/// it is what substitutes for a distributed dataflow cluster at laptop
/// scale (see DESIGN.md, substitutions).
///
/// Scheduling: the iteration space [0, n) is split into chunks; the calling
/// thread and up to `max_parallelism - 1` pool workers claim chunks from a
/// shared atomic cursor (work stealing at chunk granularity), so uneven
/// per-item costs balance automatically. The first exception thrown by the
/// body is captured, remaining chunks are abandoned, and the exception
/// rethrows on the calling thread once the loop quiesces.
///
/// Nesting: a parallel loop entered from inside another parallel loop's
/// body runs inline and serially on the calling worker. This keeps nested
/// calls deadlock-free (workers never block on work only other workers can
/// run) at the cost of no extra parallelism below the top level.
class Executor {
 public:
  /// The shared executor, constructed on first use with
  /// `Configure()`-requested threads, else $BDI_NUM_THREADS, else
  /// hardware_concurrency (at least 1). Requests are clamped to
  /// hardware_concurrency: the pool runs CPU-bound kernels, and
  /// oversubscribing cores only adds context switches.
  static Executor& Get();

  /// Requests the worker count for the shared pool (clamped to
  /// hardware_concurrency at construction). Effective only before the
  /// pool's lazy construction; returns false (and changes nothing) once
  /// the pool exists. Intended for process entry points (benches, tools).
  static bool Configure(size_t num_threads);

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Worker count of the shared pool (fixed after lazy construction).
  size_t num_threads() const { return threads_.size(); }

  /// Runs fn(i) for i in [0, n), blocking until all complete.
  /// `max_parallelism` caps the worker count for this call: 0 means the
  /// full pool, 1 runs inline serially in index order (the deterministic
  /// reference path).
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                   size_t max_parallelism = 0);

  /// Chunked variant: fn(begin, end) per claimed chunk, letting the body
  /// keep per-chunk state (local accumulators, scratch buffers). Chunks are
  /// at least `min_chunk` indices (except possibly the last). With
  /// `max_parallelism` == 1 the whole range arrives as one chunk.
  void ParallelForRanges(size_t n,
                         const std::function<void(size_t, size_t)>& fn,
                         size_t max_parallelism = 0, size_t min_chunk = 1);

 private:
  /// Spawns `num_threads` workers (at least 1).
  explicit Executor(size_t num_threads);
  /// Drains queued work, then joins the workers (at process exit).
  ~Executor();

  /// Enqueues `fn`; returns a future completing when it has run.
  std::future<void> Submit(std::function<void()> fn);
  /// Per-worker run loop: pops queued tasks until shutdown drains.
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::packaged_task<void()>> queue_;
  bool shutting_down_ = false;
  std::vector<std::thread> threads_;
};

/// Convenience wrappers over Executor::Get(). A serial request
/// (`max_parallelism` == 1, or n < 2) short-circuits without touching —
/// or lazily constructing — the shared pool.
void ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                 size_t max_parallelism = 0);
void ParallelForRanges(size_t n, const std::function<void(size_t, size_t)>& fn,
                       size_t max_parallelism = 0, size_t min_chunk = 1);

}  // namespace bdi

#endif  // BDI_COMMON_EXECUTOR_H_
