#include "bdi/serve/store.h"

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <utility>

#include "bdi/common/metrics.h"
#include "bdi/common/posix_io.h"
#include "bdi/common/timer.h"
#include "bdi/storage/bds_reader.h"
#include "bdi/storage/bds_writer.h"

namespace bdi::serve {

namespace {

metrics::Counter& BatchesCounter() {
  static metrics::Counter* counter =
      metrics::Registry::Get().RegisterCounter("bdi.serve.batches");
  return *counter;
}

metrics::Counter& BatchRecordsCounter() {
  static metrics::Counter* counter =
      metrics::Registry::Get().RegisterCounter("bdi.serve.batch.records");
  return *counter;
}

metrics::Histogram& BatchApplyHistogram() {
  static metrics::Histogram* histogram =
      metrics::Registry::Get().RegisterHistogram(
          "bdi.serve.batch.apply_ms", {1.0, 5.0, 10.0, 25.0, 50.0, 100.0,
                                       250.0, 500.0, 1000.0, 5000.0});
  return *histogram;
}

metrics::Gauge& SnapshotVersionGauge() {
  static metrics::Gauge* gauge =
      metrics::Registry::Get().RegisterGauge("bdi.serve.snapshot.version");
  return *gauge;
}

metrics::Gauge& SnapshotEntitiesGauge() {
  static metrics::Gauge* gauge =
      metrics::Registry::Get().RegisterGauge("bdi.serve.snapshot.entities");
  return *gauge;
}

metrics::Gauge& SnapshotRecordsGauge() {
  static metrics::Gauge* gauge =
      metrics::Registry::Get().RegisterGauge("bdi.serve.snapshot.records");
  return *gauge;
}

metrics::Counter& WalAppendsCounter() {
  static metrics::Counter* counter =
      metrics::Registry::Get().RegisterCounter("bdi.serve.wal.appends");
  return *counter;
}

metrics::Counter& WalAppendBytesCounter() {
  static metrics::Counter* counter =
      metrics::Registry::Get().RegisterCounter("bdi.serve.wal.append_bytes");
  return *counter;
}

metrics::Histogram& WalAppendHistogram() {
  static metrics::Histogram* histogram =
      metrics::Registry::Get().RegisterHistogram(
          "bdi.serve.wal.append_us",
          {50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
           50000.0, 250000.0});
  return *histogram;
}

metrics::Counter& WalRotationsCounter() {
  static metrics::Counter* counter =
      metrics::Registry::Get().RegisterCounter("bdi.serve.wal.rotations");
  return *counter;
}

metrics::Counter& WalRotationFailuresCounter() {
  static metrics::Counter* counter =
      metrics::Registry::Get().RegisterCounter(
          "bdi.serve.wal.rotation_failures");
  return *counter;
}

metrics::Counter& WalReplayedBatchesCounter() {
  static metrics::Counter* counter =
      metrics::Registry::Get().RegisterCounter(
          "bdi.serve.wal.replayed.batches");
  return *counter;
}

metrics::Counter& WalReplayedRecordsCounter() {
  static metrics::Counter* counter =
      metrics::Registry::Get().RegisterCounter(
          "bdi.serve.wal.replayed.records");
  return *counter;
}

metrics::Counter& WalTruncatedTailsCounter() {
  static metrics::Counter* counter =
      metrics::Registry::Get().RegisterCounter(
          "bdi.serve.wal.truncated_tails");
  return *counter;
}

metrics::Counter& AdmissionAdmittedCounter() {
  static metrics::Counter* counter =
      metrics::Registry::Get().RegisterCounter(
          "bdi.serve.admission.admitted");
  return *counter;
}

metrics::Counter& AdmissionShedCounter() {
  static metrics::Counter* counter =
      metrics::Registry::Get().RegisterCounter("bdi.serve.admission.shed");
  return *counter;
}

metrics::Counter& AdmissionShedRecordsCounter() {
  static metrics::Counter* counter =
      metrics::Registry::Get().RegisterCounter(
          "bdi.serve.admission.shed_records");
  return *counter;
}

metrics::Gauge& PendingBatchesGauge() {
  static metrics::Gauge* gauge = metrics::Registry::Get().RegisterGauge(
      "bdi.serve.admission.pending.batches");
  return *gauge;
}

metrics::Gauge& PendingRecordsGauge() {
  static metrics::Gauge* gauge = metrics::Registry::Get().RegisterGauge(
      "bdi.serve.admission.pending.records");
  return *gauge;
}

metrics::Histogram& RetryAfterHistogram() {
  static metrics::Histogram* histogram =
      metrics::Registry::Get().RegisterHistogram(
          "bdi.serve.admission.retry_after_ms",
          {1.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0,
           5000.0});
  return *histogram;
}

}  // namespace

/// Decrements the pending-work counters when an admitted batch leaves
/// ApplyBatch, whatever the exit path.
struct EntityStore::PendingGuard {
  EntityStore* store;
  size_t records;
  ~PendingGuard() {
    uint64_t batches =
        store->pending_batches_.fetch_sub(1, std::memory_order_relaxed) - 1;
    uint64_t pending = store->pending_records_.fetch_sub(
                           records, std::memory_order_relaxed) -
                       records;
    if (metrics::Enabled()) {
      PendingBatchesGauge().Set(static_cast<int64_t>(batches));
      PendingRecordsGauge().Set(static_cast<int64_t>(pending));
    }
  }
};

EntityStore::EntityStore(StoreConfig config) : config_(std::move(config)) {}

Result<std::unique_ptr<EntityStore>> EntityStore::Create(
    Dataset bootstrap, const StoreConfig& config) {
  // Durable startup: when a log already exists, recovery replaces the
  // bootstrap corpus with the log's checkpoint (if it names one) and
  // replays the logged batches below.
  WalReplay replay;
  bool recovering = false;
  if (!config.wal.path.empty()) {
    struct stat st;
    if (::stat(config.wal.path.c_str(), &st) == 0 && st.st_size > 0) {
      BDI_ASSIGN_OR_RETURN(std::string bytes,
                           io::ReadFileBytes(config.wal.path));
      BDI_ASSIGN_OR_RETURN(replay, ParseWal(bytes));
      // A file without a complete header is a torn initial Create that
      // never acknowledged a batch — recreate it instead of recovering.
      recovering = replay.has_header;
    }
  }
  if (recovering && replay.base_seq > 0) {
    const std::string checkpoint =
        WalCheckpointPath(config.wal.path, replay.base_seq);
    Result<storage::BdsReader> reader = storage::BdsReader::Open(checkpoint);
    if (!reader.ok()) {
      return Status::IOError(
          "serve: WAL names checkpoint sequence " +
          std::to_string(replay.base_seq) + " but " + checkpoint +
          " cannot be opened: " + reader.status().message());
    }
    BDI_ASSIGN_OR_RETURN(bootstrap, reader->ReadAll());
  }
  if (bootstrap.num_records() == 0) {
    return Status::InvalidArgument(
        "serve: the bootstrap corpus has no records");
  }
  auto store = std::unique_ptr<EntityStore>(new EntityStore(config));
  store->dataset_ = std::move(bootstrap);
  for (const SourceInfo& source : store->dataset_.sources()) {
    store->source_ids_.emplace(source.name, source.id);
  }

  // The bootstrap pass runs unbudgeted — budgets bound *live* batch
  // latency, not initial build fidelity.
  store->integrator_ = std::make_unique<core::IncrementalIntegrator>(
      &store->dataset_, config.integrator);
  store->integrator_->Refresh();

  store->version_ = 1;
  store->snapshot_.store(
      Snapshot::Build(store->integrator_->report(), store->dataset_,
                      config.num_shards, store->version_,
                      config.num_threads),
      std::memory_order_release);
  // Live batches run under the configured budgets from here on — and so
  // does replay, which re-applies the same batches in the same order
  // through the same path.
  store->integrator_->linker().set_comparison_budget(
      config.comparison_budget);
  store->integrator_->linker().set_budget_ms(config.budget_ms);

  if (!config.wal.path.empty()) {
    if (recovering) {
      store->seq_.store(replay.base_seq, std::memory_order_relaxed);
      store->num_batches_.store(replay.base_seq,
                                std::memory_order_relaxed);
      store->wal_base_seq_.store(replay.base_seq,
                                 std::memory_order_relaxed);
      for (const WalBatch& batch : replay.batches) {
        std::lock_guard<std::mutex> lock(store->write_mutex_);
        Result<BatchResult> applied =
            store->ApplyLocked(batch.records, /*replaying=*/true);
        if (!applied.ok()) return applied.status();
        WalReplayedBatchesCounter().Add();
        WalReplayedRecordsCounter().Add(batch.records.size());
      }
      store->replayed_batches_ = replay.batches.size();
      if (replay.truncated_tail) WalTruncatedTailsCounter().Add();
      BDI_ASSIGN_OR_RETURN(
          store->wal_, Wal::OpenForAppend(config.wal.path,
                                          replay.valid_bytes,
                                          config.wal.fsync));
    } else {
      BDI_ASSIGN_OR_RETURN(
          store->wal_,
          Wal::Create(config.wal.path, /*base_seq=*/0, config.wal.fsync));
    }
    // Drop checkpoints a crashed rotation or cleanup left behind; the
    // one the live log names (if any) is kept.
    BDI_RETURN_IF_ERROR(RemoveStaleCheckpoints(
        config.wal.path, store->wal_base_seq_.load()));
  }

  if (metrics::Enabled()) {
    std::shared_ptr<const Snapshot> snapshot = store->snapshot();
    SnapshotVersionGauge().Set(static_cast<int64_t>(snapshot->version()));
    SnapshotEntitiesGauge().Set(
        static_cast<int64_t>(snapshot->num_entities()));
    SnapshotRecordsGauge().Set(static_cast<int64_t>(snapshot->num_records()));
  }
  return store;
}

double EntityStore::RetryAfterMsHint(uint64_t queued_batches) const {
  double ewma = apply_ms_ewma_.load(std::memory_order_relaxed);
  // Before any batch completed there is no drain-rate signal; suggest a
  // conservative default rather than 0 (which would invite a hot retry
  // loop).
  if (ewma <= 0.0) ewma = 100.0;
  double hint = ewma * static_cast<double>(std::max<uint64_t>(
                           1, queued_batches));
  return std::max(1.0, hint);
}

Result<BatchResult> EntityStore::ApplyBatch(
    const std::vector<UpdateRecord>& records, BatchRejection* rejection) {
  if (records.empty()) {
    return Status::InvalidArgument("serve: empty update batch");
  }
  // Admission control runs before the write mutex, so shedding decisions
  // are made in nanoseconds even while a batch is mid-apply.
  const uint64_t batches_now =
      pending_batches_.fetch_add(1, std::memory_order_relaxed) + 1;
  const uint64_t records_now =
      pending_records_.fetch_add(records.size(),
                                 std::memory_order_relaxed) +
      records.size();
  const bool over_batches = config_.max_pending_batches > 0 &&
                            batches_now > config_.max_pending_batches;
  const bool over_records = config_.max_pending_records > 0 &&
                            records_now > config_.max_pending_records;
  if (over_batches || over_records) {
    const uint64_t queued =
        pending_batches_.fetch_sub(1, std::memory_order_relaxed) - 1;
    const uint64_t queued_records =
        pending_records_.fetch_sub(records.size(),
                                   std::memory_order_relaxed) -
        records.size();
    const double retry_after_ms = RetryAfterMsHint(queued);
    if (rejection != nullptr) {
      rejection->retry_after_ms = retry_after_ms;
      rejection->pending_batches = queued;
      rejection->pending_records = queued_records;
    }
    AdmissionShedCounter().Add();
    AdmissionShedRecordsCounter().Add(records.size());
    if (metrics::Enabled()) {
      RetryAfterHistogram().Observe(retry_after_ms);
    }
    return Status::Unavailable(
        "serve: overloaded — " + std::to_string(queued) +
        " update batches / " + std::to_string(queued_records) +
        " records in flight");
  }
  AdmissionAdmittedCounter().Add();
  if (metrics::Enabled()) {
    PendingBatchesGauge().Set(static_cast<int64_t>(batches_now));
    PendingRecordsGauge().Set(static_cast<int64_t>(records_now));
  }
  PendingGuard guard{this, records.size()};
  std::lock_guard<std::mutex> lock(write_mutex_);
  return ApplyLocked(records, /*replaying=*/false);
}

Result<BatchResult> EntityStore::ApplyLocked(
    const std::vector<UpdateRecord>& records, bool replaying) {
  WallTimer timer;
  BatchResult result;
  result.seq = seq_.load(std::memory_order_relaxed) + 1;

  // Durability point: the batch is framed, appended and fsynced before
  // the integrator sees a single record. A crash after this line replays
  // the batch; a WAL failure fails the batch without applying it, so the
  // resident state never runs ahead of the log.
  if (wal_ != nullptr && !replaying) {
    WallTimer wal_timer;
    const uint64_t bytes_before = wal_->bytes();
    BDI_RETURN_IF_ERROR(wal_->AppendBatch(result.seq, records));
    result.wal_ms = wal_timer.ElapsedMillis();
    WalAppendsCounter().Add();
    WalAppendBytesCounter().Add(wal_->bytes() - bytes_before);
    if (metrics::Enabled()) {
      WalAppendHistogram().Observe(result.wal_ms * 1000.0);
    }
  }

  for (const UpdateRecord& record : records) {
    auto [it, inserted] =
        source_ids_.emplace(record.source, kInvalidSource);
    if (inserted) it->second = dataset_.AddSource(record.source);
    dataset_.AddRecord(it->second, record.fields);
  }
  size_t comparisons = integrator_->Refresh();

  result.records = records.size();
  result.comparisons = comparisons;
  result.budget_stopped =
      integrator_->linker().last_progressive().budget_stopped;
  result.deadline_stopped =
      integrator_->linker().last_progressive().deadline_stopped;
  result.version = ++version_;

  std::shared_ptr<const Snapshot> next =
      Snapshot::Build(integrator_->report(), dataset_, config_.num_shards,
                      result.version, config_.num_threads);
  // The publication point: one atomic swap. Readers holding the previous
  // snapshot finish on it; new readers see this version.
  snapshot_.store(next, std::memory_order_release);
  seq_.store(result.seq, std::memory_order_relaxed);
  num_batches_.fetch_add(1, std::memory_order_relaxed);
  result.apply_ms = timer.ElapsedMillis();

  // Feed the drain-rate estimate behind retry_after_ms hints. Replayed
  // batches count too — they run the same pipeline.
  const double prev = apply_ms_ewma_.load(std::memory_order_relaxed);
  apply_ms_ewma_.store(
      prev <= 0.0 ? result.apply_ms : 0.75 * prev + 0.25 * result.apply_ms,
      std::memory_order_relaxed);

  if (metrics::Enabled()) {
    BatchesCounter().Add();
    BatchRecordsCounter().Add(records.size());
    BatchApplyHistogram().Observe(result.apply_ms);
    SnapshotVersionGauge().Set(static_cast<int64_t>(next->version()));
    SnapshotEntitiesGauge().Set(static_cast<int64_t>(next->num_entities()));
    SnapshotRecordsGauge().Set(static_cast<int64_t>(next->num_records()));
  }

  if (wal_ != nullptr && !replaying && config_.wal.rotate_bytes > 0 &&
      wal_->bytes() >= config_.wal.rotate_bytes) {
    Status rotated = RotateWalLocked();
    // A failed rotation is not a failed batch: the batch is durable in
    // the (still live) old log. Count it and keep serving; the next
    // batch retries the rotation.
    if (!rotated.ok()) WalRotationFailuresCounter().Add();
  }
  return result;
}

Status EntityStore::RotateWalLocked() {
  const uint64_t seq = seq_.load(std::memory_order_relaxed);
  const std::string checkpoint =
      WalCheckpointPath(config_.wal.path, seq);
  const std::string checkpoint_tmp = checkpoint + ".tmp";
  // 1. Checkpoint the resident dataset. The temp-write/fsync/rename dance
  // means a crash anywhere leaves either no checkpoint (old log + old
  // checkpoint still recover) or a complete one.
  BDI_RETURN_IF_ERROR(
      storage::WriteDatasetBds(dataset_, checkpoint_tmp));
  if (config_.wal.fsync) {
    BDI_RETURN_IF_ERROR(io::FsyncPath(checkpoint_tmp));
  }
  if (std::rename(checkpoint_tmp.c_str(), checkpoint.c_str()) != 0) {
    return Status::IOError("wal: cannot publish checkpoint " + checkpoint);
  }
  if (config_.wal.fsync) {
    BDI_RETURN_IF_ERROR(io::FsyncParentDir(checkpoint));
  }
  // 2. Swap in a fresh log whose header names the checkpoint. Until the
  // rename lands, recovery still sees the old log (whose checkpoint was
  // not deleted yet) — every crash point recovers.
  const std::string log_tmp = config_.wal.path + ".rotate.tmp";
  BDI_ASSIGN_OR_RETURN(std::unique_ptr<Wal> fresh,
                       Wal::Create(log_tmp, seq, config_.wal.fsync));
  if (std::rename(log_tmp.c_str(), config_.wal.path.c_str()) != 0) {
    return Status::IOError("wal: cannot swap in rotated log " +
                           config_.wal.path);
  }
  if (config_.wal.fsync) {
    BDI_RETURN_IF_ERROR(io::FsyncParentDir(config_.wal.path));
  }
  wal_ = std::move(fresh);
  wal_base_seq_.store(seq, std::memory_order_relaxed);
  // 3. Only now is the old checkpoint garbage.
  BDI_RETURN_IF_ERROR(RemoveStaleCheckpoints(config_.wal.path, seq));
  WalRotationsCounter().Add();
  return Status::OK();
}

}  // namespace bdi::serve
