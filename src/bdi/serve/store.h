#ifndef BDI_SERVE_STORE_H_
#define BDI_SERVE_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "bdi/common/result.h"
#include "bdi/core/incremental_integrator.h"
#include "bdi/serve/protocol.h"
#include "bdi/serve/snapshot.h"
#include "bdi/serve/wal.h"

namespace bdi::serve {

/// Durability options of the resident store (docs/SERVING.md,
/// "Durability"): where the write-ahead log lives and when it compacts.
struct WalConfig {
  /// WAL path; empty disables durability (the PR-9 behavior: the store
  /// rebuilds from the bootstrap corpus only).
  std::string path;
  /// Rotate the log — write a `.bds` checkpoint of the resident dataset
  /// and start a fresh log based on it — once the live log exceeds this
  /// many bytes. 0 disables rotation (the log grows without bound).
  uint64_t rotate_bytes = 64ull << 20;
  /// fsync every appended batch (and checkpoint/rename during rotation).
  /// Off only for benchmarks isolating the CPU cost; an un-fsynced log
  /// gives no crash guarantee.
  bool fsync = true;
};

/// Configuration of the resident entity store.
struct StoreConfig {
  /// Shards the snapshot hashes entities over. More shards narrow the
  /// posting maps (smaller probe constants); the count is a layout knob
  /// only — results are shard-count-independent.
  size_t num_shards = 8;
  /// Per-batch progressive comparison budget for *live* update batches
  /// (LinkerConfig::comparison_budget encoding; 0 = unlimited). The
  /// bootstrap corpus always links unbudgeted.
  double comparison_budget = 0.0;
  /// Per-batch wall-clock linkage deadline for live batches, in
  /// milliseconds (LinkerConfig::budget_ms semantics; 0 = none).
  double budget_ms = 0.0;
  /// Threads for snapshot builds (0 = shared executor pool).
  size_t num_threads = 0;
  /// Write-ahead log; `wal.path` empty disables durability.
  WalConfig wal;
  /// Admission control: largest number of update batches admitted but not
  /// yet applied before further batches are shed with `overloaded`
  /// (0 = unlimited; the pre-admission behavior of queueing on the write
  /// mutex without bound).
  uint64_t max_pending_batches = 0;
  /// Admission control: largest record count across admitted-unapplied
  /// batches before shedding (0 = unlimited). A single batch larger than
  /// this can never be admitted — clients must split it.
  uint64_t max_pending_records = 0;
  /// The batch-pipeline configuration the store's state must stay
  /// equivalent to.
  core::IntegratorConfig integrator;
};

/// What one applied update batch did.
struct BatchResult {
  /// Snapshot version the batch published.
  uint64_t version = 0;
  /// Durable batch sequence number (bootstrap = 0, then 1, 2, ... across
  /// restarts; replayed batches keep their original numbers).
  uint64_t seq = 0;
  /// Records ingested by the batch.
  size_t records = 0;
  /// Pairwise comparisons the incremental linkage spent.
  size_t comparisons = 0;
  /// Wall milliseconds from ApplyBatch entry to snapshot publication.
  double apply_ms = 0.0;
  /// Wall milliseconds spent making the batch durable (WAL append +
  /// fsync); 0 when the store runs without a WAL.
  double wal_ms = 0.0;
  /// True when the comparison budget stopped linkage early.
  bool budget_stopped = false;
  /// True when the wall-clock deadline stopped linkage early.
  bool deadline_stopped = false;
};

/// The resident sharded entity store behind `bdi serve`: warm in-memory
/// integration state (interned dataset, incremental linkage index, fused
/// clusters) plus an immutable Snapshot that queries read.
///
/// Concurrency model (docs/SERVING.md): readers call snapshot() — an
/// atomic shared_ptr load — and run entirely against that immutable
/// version; writers serialize on an internal mutex, push the batch
/// through the resident Linker (Linker::AddNewRecords), build a fresh
/// Snapshot and publish it with one atomic swap. Readers never block
/// writers and vice versa; a reader mid-query keeps its version alive
/// through the shared_ptr.
///
/// Durability model (docs/SERVING.md): with `StoreConfig::wal` set, every
/// accepted batch is framed, appended, and fsynced to the log *before* it
/// touches the integrator, so an acknowledged batch survives SIGKILL.
/// Create() recovers automatically: it loads the newest checkpoint the
/// log names (or the bootstrap corpus when none exists), replays the log
/// tail through the normal apply path, and truncates any torn tail frame.
/// When the log outgrows `wal.rotate_bytes` the store compacts: the
/// resident dataset is checkpointed to `<wal>.ckpt-<seq>.bds` and a fresh
/// log based on it replaces the old one (both renames fsynced, old
/// checkpoints removed only after the swap — every crash point recovers).
///
/// Overload model: with `max_pending_batches` / `max_pending_records`
/// set, a batch arriving while that much work is already admitted-but-
/// unapplied is shed immediately with Unavailable (the server encodes it
/// as the structured `overloaded` error) instead of queueing unboundedly
/// on the write mutex.
///
/// Equivalence invariant: with budgets off, the state after any sequence
/// of ApplyBatch calls is bitwise-identical (Snapshot::DebugString) to a
/// store bootstrapped from the same records in one batch, and to the
/// batch pipeline AlignSchema -> Linker(dataset, config, nullptr,
/// nullptr).Run() -> ApplyLinkageFeedback -> Fuse(&linker.roles()) over
/// them — the resident Linker's state equals a batch Run() for any batch
/// partition, and every refresh realigns the schema and re-fuses the
/// whole corpus (IncrementalIntegrator::Refresh). It differs from
/// Integrator::Run only by the schema features the batch linker scores
/// with (docs/SERVING.md). Crash recovery
/// inherits it: checkpoint + WAL-tail replay lands on the same
/// DebugString as a never-crashed store (serve_recovery_test).
class EntityStore {
 public:
  /// Builds the store over the bootstrap corpus: one unbudgeted
  /// incremental pipeline pass, then snapshot version 1. Takes ownership
  /// of `bootstrap` (the store's dataset grows with batches). Fails with
  /// InvalidArgument on an empty corpus. With `config.wal.path` set and
  /// an existing log there, recovery runs instead: the log's checkpoint
  /// (when it names one) replaces `bootstrap`, and the logged batches are
  /// replayed before the store accepts traffic — so pass the *same*
  /// bootstrap corpus as the original run until the first rotation makes
  /// the log self-contained.
  static Result<std::unique_ptr<EntityStore>> Create(Dataset bootstrap,
                                                     const StoreConfig& config);

  EntityStore(const EntityStore&) = delete;
  EntityStore& operator=(const EntityStore&) = delete;

  /// The current published snapshot (atomic acquire; never null).
  /// Thread-safe, wait-free for readers.
  std::shared_ptr<const Snapshot> snapshot() const {
    return snapshot_.load(std::memory_order_acquire);
  }

  /// Applies one update batch: admission-checks it, makes it durable
  /// (when a WAL is configured), appends the records to the warm dataset
  /// (interning sources and attributes), refreshes linkage incrementally
  /// under the configured budgets, re-fuses, builds the next snapshot and
  /// publishes it. Writers serialize; readers are never blocked. The
  /// records must already be protocol-validated (non-empty source, at
  /// least one field each).
  ///
  /// When admission control sheds the batch the status is Unavailable
  /// ("overloaded") and `*rejection` (when non-null) carries the pending
  /// load and a retry_after_ms hint; nothing was logged or applied. An
  /// IOError means the WAL append failed — the batch was likewise not
  /// applied (fail-stop: durability errors never let state diverge from
  /// the log).
  Result<BatchResult> ApplyBatch(const std::vector<UpdateRecord>& records,
                                 BatchRejection* rejection = nullptr);

  /// Number of batches applied since the *original* bootstrap — replayed
  /// batches count, so the number is continuous across restarts.
  uint64_t num_batches() const {
    return num_batches_.load(std::memory_order_relaxed);
  }

  /// Durable sequence number of the last applied batch (0 = none yet).
  uint64_t wal_sequence() const {
    return seq_.load(std::memory_order_relaxed);
  }

  /// Checkpoint sequence the current log is based on (0 = the bootstrap
  /// corpus; >0 after the first rotation).
  uint64_t wal_base_sequence() const {
    return wal_base_seq_.load(std::memory_order_relaxed);
  }

  /// Batches replayed from the WAL during Create (0 when the store
  /// started fresh).
  uint64_t replayed_batches() const { return replayed_batches_; }

  /// Update batches admitted but not yet applied, right now.
  uint64_t pending_batches() const {
    return pending_batches_.load(std::memory_order_relaxed);
  }

  /// Records across the pending batches, right now.
  uint64_t pending_records() const {
    return pending_records_.load(std::memory_order_relaxed);
  }

 private:
  explicit EntityStore(StoreConfig config);

  /// Decrements the pending counters on every exit path after admission.
  struct PendingGuard;

  /// The post-admission body of ApplyBatch: log (unless replaying), apply,
  /// publish. Caller holds write_mutex_.
  Result<BatchResult> ApplyLocked(const std::vector<UpdateRecord>& records,
                                  bool replaying);

  /// Compacts the log: checkpoint the resident dataset, swap in a fresh
  /// log based on it, drop stale checkpoints. Caller holds write_mutex_.
  Status RotateWalLocked();

  /// The retry hint for a shed batch: pending depth times the EWMA of
  /// recent apply times (floored when no batch has completed yet).
  double RetryAfterMsHint(uint64_t queued_batches) const;

  StoreConfig config_;
  /// Writer state, all guarded by write_mutex_: the growing dataset, the
  /// incremental integrator wired to it, source-name interning, the WAL
  /// appender and the version counter.
  std::mutex write_mutex_;
  Dataset dataset_;
  std::unique_ptr<core::IncrementalIntegrator> integrator_;
  std::unordered_map<std::string, SourceId> source_ids_;
  uint64_t version_ = 0;
  std::unique_ptr<Wal> wal_;
  uint64_t replayed_batches_ = 0;
  /// Monotone counters published for readers (relaxed: they are stats,
  /// not synchronization).
  std::atomic<uint64_t> num_batches_{0};
  std::atomic<uint64_t> seq_{0};
  std::atomic<uint64_t> wal_base_seq_{0};
  /// Admission state, updated outside write_mutex_ so shedding decisions
  /// never wait on a batch in flight.
  std::atomic<uint64_t> pending_batches_{0};
  std::atomic<uint64_t> pending_records_{0};
  /// EWMA of recent batch apply times, feeding retry_after_ms hints.
  std::atomic<double> apply_ms_ewma_{0.0};
  /// The published snapshot (RCU-style: swapped whole, never mutated).
  std::atomic<std::shared_ptr<const Snapshot>> snapshot_;
};

}  // namespace bdi::serve

#endif  // BDI_SERVE_STORE_H_
