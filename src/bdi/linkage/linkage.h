#ifndef BDI_LINKAGE_LINKAGE_H_
#define BDI_LINKAGE_LINKAGE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "bdi/linkage/attr_roles.h"
#include "bdi/linkage/blocking.h"
#include "bdi/linkage/clustering.h"
#include "bdi/linkage/matcher.h"
#include "bdi/linkage/progressive.h"
#include "bdi/schema/attribute_stats.h"
#include "bdi/text/interner.h"

namespace bdi::linkage {

/// The pair scorer a Linker matches with (matcher.h).
enum class ScorerKind { kLinear, kRule, kLearned };

/// Builds a scorer of the given kind with its match threshold set to
/// `threshold` (PairScorer::set_threshold). The Linker builds its scorer
/// here, so one config yields one scorer.
std::unique_ptr<PairScorer> MakeScorer(ScorerKind kind, double threshold);

/// Settings of a Linker; only the budgets change after construction.
struct LinkerConfig {
  /// Scorer kind, built by MakeScorer.
  ScorerKind scorer = ScorerKind::kRule;
  /// Match threshold, applied to every scorer kind via
  /// PairScorer::set_threshold() (the scorer's threshold() is
  /// authoritative during matching).
  double threshold = 0.5;
  /// How matched edges become clusters (ClusterRecords).
  ClusteringMethod clustering = ClusteringMethod::kConnectedComponents;
  /// Threads for the pairwise matching stage; 0 = hardware concurrency.
  size_t num_threads = 0;
  /// Progressive comparison budget of each Run() or AddNewRecords() batch
  /// (ScorePairsProgressive in progressive.h): 0 = unlimited, a value in
  /// (0, 1) = fraction of the full-kernel comparisons the unbudgeted run
  /// would make, >= 1 = an absolute comparison count. Matching always runs
  /// the bound-ranked scheduler, which compares the highest-bound
  /// candidates first and stops when the budget runs out — so the match
  /// set at a small budget is a subset of the match set at a larger one,
  /// and recall is anytime rather than all-or-nothing. Unlimited, every
  /// candidate whose bound can clear the threshold gets the full kernels.
  double comparison_budget = 0.0;
  /// Wall-clock deadline for the pairwise matching stage of each Run() or
  /// AddNewRecords() batch, in milliseconds (0 = none). The scheduler
  /// checks it at every scheduling-round boundary and defers the remaining
  /// comparisons when it expires — the serving layer's per-batch latency
  /// bound. Composable with `comparison_budget`: whichever limit is hit
  /// first stops the run. Unlike a comparison budget, where the run stops
  /// depends on wall time, so deadline-stopped match sets are
  /// reproducible in *form* (a prefix of the deterministic schedule) but
  /// not in size.
  double budget_ms = 0.0;
};

/// What one Run() produced, stage by stage.
struct LinkageResult {
  /// Record -> cluster labels.
  EntityClusters clusters;
  /// The scored pairs that cleared the scorer's threshold, in candidate
  /// order — the clustering input, kept for diagnostics and equivalence
  /// testing (serial and parallel runs must produce identical pairs and
  /// bit-identical scores).
  std::vector<ScoredPair> matches;
  size_t num_candidates = 0;
  size_t num_matches = 0;
  /// Candidates the prefilter rejected without running the full kernels
  /// (their score upper bound could not reach the threshold).
  size_t num_prefiltered = 0;
  /// Full-kernel comparisons the scheduler executed (every prefilter
  /// survivor when unbudgeted).
  size_t num_scheduled = 0;
  /// Prefilter survivors the progressive scheduler left uncompared
  /// because the comparison budget ran out (0 when unbudgeted).
  size_t num_deferred = 0;
  double blocking_seconds = 0.0;
  double matching_seconds = 0.0;
  double clustering_seconds = 0.0;
};

/// End-to-end record linkage over a resident blocking index: blocking ->
/// parallel pairwise matching (ScorePairsProgressive) -> clustering.
///
/// Blocking keys each record on its identifier and name tokens
/// (BlockingKeys with the kIdentifier and kName families of blocking.h);
/// records sharing a key whose posting is within its cap are candidates.
/// The index and the matched edges stay resident, so AddNewRecords() links
/// records appended to the dataset by comparing only the pairs they add,
/// and Run() is one AddNewRecords() over every record plus clustering.
/// With budgets off, the candidates, match scores and clusters after any
/// sequence of AddNewRecords() calls equal one Run() over the same
/// records with the same roles: a posting that grows past its cap
/// retracts the pairs (and edges) no other live key supports, and a role
/// change on an indexed source attribute re-links every record.
///
/// Attribute roles are detected from corpus statistics; an aligned
/// mediated schema plus value normalizer can be supplied to strengthen the
/// value-agreement evidence (the linkage-before-alignment vs
/// alignment-before-linkage interplay the tutorial discusses). Scores
/// already made are never recomputed for a changed schema, so a linker
/// that keeps linking a corpus whose schema is realigned is built without
/// one.
class Linker {
 public:
  /// `dataset` must outlive the linker. Roles are detected from `stats`,
  /// the statistics of `*dataset` (schema::AttributeStatistics::Compute),
  /// when given, else from statistics computed here.
  Linker(const Dataset* dataset, const LinkerConfig& config,
         const schema::MediatedSchema* schema = nullptr,
         const schema::ValueNormalizer* normalizer = nullptr,
         const schema::AttributeStatistics* stats = nullptr);

  Linker(const Linker&) = delete;
  Linker& operator=(const Linker&) = delete;

  /// Links every record of the dataset from an empty index (one
  /// AddNewRecords() over all records) and clusters the matches.
  LinkageResult Run();

  /// Indexes and links every record appended to the dataset since the
  /// last call (or Run()), under the configured budgets. When `stats` (the
  /// statistics of the whole current dataset) is given, roles are
  /// re-detected from it first; if the role of an already indexed source
  /// attribute changed, every record is re-linked from an empty index.
  /// Returns the number of candidate pairs scored.
  size_t AddNewRecords(const schema::AttributeStatistics* stats = nullptr);

  /// Record -> cluster labels over the indexed records, from the current
  /// edges with the configured clustering method.
  EntityClusters Clusters() const;

  /// Records indexed so far.
  size_t num_indexed() const { return next_record_; }
  /// Candidate pairs of the indexed records (what Run() over them would
  /// report as num_candidates).
  size_t num_candidates() const { return num_candidates_; }
  /// The matched edges of the indexed records, sorted by pair (Run()'s
  /// `matches` over the same records).
  const std::vector<ScoredPair>& edges() const { return edges_; }
  /// The candidate pairs of the indexed records, sorted by (a, b),
  /// expanded from the live postings (diagnostics and equivalence tests).
  std::vector<CandidatePair> Candidates() const;

  /// Scheduler stats of the last Run() or AddNewRecords() batch
  /// (zero-initialized before the first).
  const ProgressiveStats& last_progressive() const {
    return last_progressive_;
  }

  /// Changes the comparison budget of later batches
  /// (LinkerConfig::comparison_budget encoding). Budgets are a
  /// serving-time knob: a stream ingests its backlog unbudgeted, then caps
  /// the per-batch update latency once live.
  void set_comparison_budget(double comparison_budget) {
    config_.comparison_budget = comparison_budget;
  }

  /// Changes the wall-clock deadline of later batches
  /// (LinkerConfig::budget_ms semantics).
  void set_budget_ms(double budget_ms) { config_.budget_ms = budget_ms; }

  /// Detected attribute roles (blocking keys, features, fusion's dropped
  /// name/identifier claims).
  const AttrRoles& roles() const { return roles_; }
  /// The per-record feature cache the matcher scores with.
  FeatureExtractor& extractor() { return extractor_; }
  /// The configured scorer.
  const PairScorer& scorer() const { return *scorer_; }

  /// The candidate pairs the last Run() or AddNewRecords() batch added,
  /// sorted by (a, b) (for diagnostics).
  const std::vector<CandidatePair>& last_candidates() const {
    return last_candidates_;
  }

 private:
  /// Records sharing one key. `records` is dropped once `size` exceeds
  /// the family's cap: a dead key never generates a pair again.
  struct Posting {
    std::vector<RecordIdx> records;
    size_t size = 0;
    /// Size before the batch that last touched it, and that batch.
    size_t old_size = 0;
    uint64_t batch = 0;
  };
  /// One key family (identifier or name keys) of the index.
  struct KeyFamily {
    AttrRole role;
    size_t min_len;
    size_t max_posting;
    text::TokenInterner keys;
    std::vector<Posting> postings;
  };

  /// Empties the index and the edges.
  void ResetIndex();
  /// Extends the feature cache and the known source attributes to every
  /// record of the dataset.
  void PrepareNewRecords();
  /// Indexes records [next_record_, num_records), retracts the pairs of
  /// postings that crossed their cap, and returns the new candidates.
  std::vector<CandidatePair> IndexNewRecords();
  /// True when records a and b share a key whose posting is in its cap.
  bool SharesLiveKey(RecordIdx a, RecordIdx b) const;
  /// Blocks and scores the unindexed records (spans "blocking" and
  /// "matching"), adds their matches to the edges, and fills the
  /// candidate, scheduler and timing fields of `out`; `out->matches` gets
  /// this batch's matches.
  void LinkNewRecords(LinkageResult* out);

  const Dataset* dataset_;
  LinkerConfig config_;
  AttrRoles roles_;
  FeatureExtractor extractor_;
  std::unique_ptr<PairScorer> scorer_;

  /// known_attrs_[source][attr] marks the source attributes of the
  /// records the feature cache covers (the ones whose role changes force
  /// a re-link); num_prepared_ counts those records.
  std::vector<std::vector<bool>> known_attrs_;
  size_t num_prepared_ = 0;

  /// families_[0] identifier keys, families_[1] name keys.
  std::array<KeyFamily, 2> families_;
  /// Per indexed record: its keys as (key id << 1 | family), sorted.
  std::vector<std::vector<uint32_t>> record_keys_;
  /// Matched edges, sorted by pair.
  std::vector<ScoredPair> edges_;
  std::vector<CandidatePair> last_candidates_;
  size_t next_record_ = 0;
  size_t num_candidates_ = 0;
  uint64_t batch_ = 0;
  ProgressiveStats last_progressive_;
};

}  // namespace bdi::linkage

#endif  // BDI_LINKAGE_LINKAGE_H_
