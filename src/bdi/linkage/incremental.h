#ifndef BDI_LINKAGE_INCREMENTAL_H_
#define BDI_LINKAGE_INCREMENTAL_H_

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bdi/linkage/clustering.h"
#include "bdi/linkage/linkage.h"
#include "bdi/linkage/progressive.h"

namespace bdi::linkage {

/// Incremental record linkage (velocity): maintains a blocking index and
/// the matched-edge set so that newly appended records are linked by
/// comparing only against their blocking partners, instead of re-running
/// batch linkage over the whole corpus. Deletions tombstone records; the
/// cluster view is recomputed from surviving edges on demand (an O(E)
/// operation, no re-scoring).
///
/// Attribute roles are learned at construction and refreshed automatically
/// whenever arriving records introduce source attributes never seen before
/// (e.g. a newly discovered source): role statistics are then recomputed
/// over the whole corpus and the feature cache rebuilt. Updates from known
/// schemas keep the cheap fast path.
class IncrementalLinker {
 public:
  /// Linker settings, fixed at construction except for the budgets
  /// (set_comparison_budget, set_budget_ms).
  struct Config {
    /// Scorer and match threshold, built by MakeScorer (linkage.h).
    ScorerKind scorer = ScorerKind::kRule;
    double threshold = 0.5;
    /// Progressive comparison budget applied to each AddNewRecords()
    /// batch (LinkerConfig::comparison_budget encoding: 0 = unlimited,
    /// (0, 1) = fraction of the batch's payable comparisons, >= 1 =
    /// absolute count). Every batch runs the bound-ranked scheduler
    /// (progressive.h); a budget spends itself on the highest-bound
    /// candidate pairs first — a fixed latency budget per update batch.
    double comparison_budget = 0.0;
    /// Wall-clock deadline per AddNewRecords() batch, in milliseconds
    /// (LinkerConfig::budget_ms semantics: 0 = none, positive stops the
    /// scheduler at the first round boundary past the deadline). The
    /// serving layer's per-batch latency bound; composable with
    /// `comparison_budget`.
    double budget_ms = 0.0;
  };

  /// `dataset` must outlive the linker and already contain the initial
  /// records; call AddNewRecords() to index them.
  IncrementalLinker(const Dataset* dataset, const Config& config);

  IncrementalLinker(const IncrementalLinker&) = delete;
  IncrementalLinker& operator=(const IncrementalLinker&) = delete;

  /// Indexes and links every record appended to the dataset since the last
  /// call (or construction). Returns the number of pair comparisons made.
  size_t AddNewRecords();

  /// Tombstones records: they stop matching and their edges are dropped
  /// from the cluster view.
  void RemoveRecords(const std::vector<RecordIdx>& records);

  /// Current record -> cluster labels (tombstoned records get singleton
  /// labels).
  EntityClusters Clusters() const;

  /// Records indexed so far, matched edges kept (tombstoned endpoints
  /// included), and pair comparisons made over every batch.
  size_t num_indexed() const { return next_record_; }
  size_t num_edges() const { return edges_.size(); }
  size_t total_comparisons() const { return total_comparisons_; }

  /// Scheduler stats of the last AddNewRecords() batch (zero-initialized
  /// before the first). An unbudgeted batch reports `num_scheduled` equal
  /// to its `num_survivors` and `budget_stopped == false`.
  const ProgressiveStats& last_progressive() const {
    return last_progressive_;
  }

  /// Changes the comparison budget for subsequent AddNewRecords() calls
  /// (Config::comparison_budget encoding). Budgets are a serving-time
  /// knob: a typical stream ingests its backlog unbudgeted, then caps the
  /// per-batch update latency once live.
  void set_comparison_budget(double comparison_budget) {
    config_.comparison_budget = comparison_budget;
  }

  /// Changes the wall-clock deadline for subsequent AddNewRecords() calls
  /// (Config::budget_ms semantics). Like the comparison budget, a
  /// serving-time knob.
  void set_budget_ms(double budget_ms) { config_.budget_ms = budget_ms; }

 private:
  std::vector<RecordIdx> CandidatesFor(RecordIdx idx) const;
  void IndexRecord(RecordIdx idx);
  /// Re-learns roles and rebuilds the feature cache when new records carry
  /// unseen source attributes. Returns true when a refresh happened.
  bool MaybeRefreshRoles();

  const Dataset* dataset_;
  Config config_;
  schema::AttributeStatistics stats_;
  AttrRoles roles_;
  FeatureExtractor extractor_;
  std::unique_ptr<PairScorer> scorer_;

  std::unordered_set<SourceAttr, SourceAttrHash> known_attrs_;
  std::unordered_map<std::string, std::vector<RecordIdx>> id_index_;
  std::unordered_map<std::string, std::vector<RecordIdx>> name_index_;
  std::vector<ScoredPair> edges_;
  std::unordered_set<RecordIdx> removed_;
  size_t next_record_ = 0;
  size_t total_comparisons_ = 0;
  ProgressiveStats last_progressive_;
};

}  // namespace bdi::linkage

#endif  // BDI_LINKAGE_INCREMENTAL_H_
