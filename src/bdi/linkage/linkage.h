#ifndef BDI_LINKAGE_LINKAGE_H_
#define BDI_LINKAGE_LINKAGE_H_

#include <memory>

#include "bdi/linkage/attr_roles.h"
#include "bdi/linkage/blocking.h"
#include "bdi/linkage/clustering.h"
#include "bdi/linkage/matcher.h"
#include "bdi/linkage/meta_blocking.h"
#include "bdi/schema/attribute_stats.h"

namespace bdi::linkage {

enum class BlockerKind {
  kToken,
  kIdentifier,
  kSortedNeighborhood,
  kCanopy,
  /// Union of identifier and token blocks (the default: identifiers give
  /// precision anchors, tokens give recall for records lacking ids).
  kTokenPlusIdentifier,
};

enum class ScorerKind { kLinear, kRule, kLearned };

/// Builds a scorer of the given kind with its match threshold set to
/// `threshold` (PairScorer::set_threshold). Linker and IncrementalLinker
/// both build their scorer here, so one config yields one scorer.
std::unique_ptr<PairScorer> MakeScorer(ScorerKind kind, double threshold);

struct LinkerConfig {
  BlockerKind blocker = BlockerKind::kTokenPlusIdentifier;
  bool use_meta_blocking = false;
  MetaBlockingConfig meta_blocking;
  ScorerKind scorer = ScorerKind::kRule;
  /// Match threshold, applied to every scorer kind via
  /// PairScorer::set_threshold() (the scorer's threshold() is
  /// authoritative during matching).
  double threshold = 0.5;
  ClusteringMethod clustering = ClusteringMethod::kConnectedComponents;
  /// Threads for the pairwise matching stage; 0 = hardware concurrency.
  size_t num_threads = 0;
  /// Progressive comparison budget (ScorePairsProgressive in
  /// progressive.h): 0 = unlimited, a value in (0, 1) = fraction of the
  /// full-kernel comparisons the unbudgeted run would make, >= 1 = an
  /// absolute comparison count. Matching always runs the bound-ranked
  /// scheduler, which compares the highest-bound candidates first and
  /// stops when the budget runs out — so the match set at a small budget
  /// is a subset of the match set at a larger one, and recall is anytime
  /// rather than all-or-nothing. Unlimited, every candidate whose bound
  /// can clear the threshold gets the full kernels.
  double comparison_budget = 0.0;
  /// Wall-clock deadline for the pairwise matching stage, in milliseconds
  /// (0 = none). The scheduler checks it at every scheduling-round
  /// boundary and defers the remaining comparisons when it expires — the
  /// serving layer's per-batch latency bound. Composable with
  /// `comparison_budget`: whichever limit is hit first stops the run.
  /// Unlike a comparison budget, where the run stops depends on wall
  /// time, so deadline-stopped match sets are reproducible in *form* (a
  /// prefix of the deterministic schedule) but not in size.
  double budget_ms = 0.0;
};

struct LinkageResult {
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

/// End-to-end record linkage: blocking (optionally restructured by
/// meta-blocking) -> parallel pairwise matching -> clustering.
///
/// The Linker detects attribute roles and builds its feature extractor from
/// corpus statistics; an aligned mediated schema plus value normalizer can
/// be supplied to strengthen the value-agreement evidence (the
/// linkage-before-alignment vs alignment-before-linkage interplay the
/// tutorial discusses).
class Linker {
 public:
  Linker(const Dataset* dataset, const LinkerConfig& config,
         const schema::MediatedSchema* schema = nullptr,
         const schema::ValueNormalizer* normalizer = nullptr);

  Linker(const Linker&) = delete;
  Linker& operator=(const Linker&) = delete;

  /// Replaces the configured scorer (e.g. with a trained LearnedScorer).
  void SetScorer(std::unique_ptr<PairScorer> scorer);

  /// Runs the full pipeline over the dataset.
  LinkageResult Run();

  const AttrRoles& roles() const { return roles_; }
  FeatureExtractor& extractor() { return extractor_; }
  const PairScorer& scorer() const { return *scorer_; }

  /// The candidate pairs produced by the last Run() (for diagnostics).
  const std::vector<CandidatePair>& last_candidates() const {
    return last_candidates_;
  }

 private:
  std::unique_ptr<Blocker> MakeBlocker() const;

  const Dataset* dataset_;
  LinkerConfig config_;
  schema::AttributeStatistics stats_;
  AttrRoles roles_;
  FeatureExtractor extractor_;
  std::unique_ptr<PairScorer> scorer_;
  std::vector<CandidatePair> last_candidates_;
};

}  // namespace bdi::linkage

#endif  // BDI_LINKAGE_LINKAGE_H_
