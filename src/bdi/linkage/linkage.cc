#include "bdi/linkage/linkage.h"

#include <cstdint>
#include <iterator>
#include <memory>
#include <vector>

#include "bdi/common/metrics.h"
#include "bdi/common/timer.h"
#include "bdi/common/trace.h"
#include "bdi/linkage/progressive.h"

namespace bdi::linkage {

namespace {

metrics::Counter& BlocksCounter() {
  static metrics::Counter* counter =
      metrics::Registry::Get().RegisterCounter("bdi.linkage.blocks");
  return *counter;
}

metrics::Counter& CandidatesCounter() {
  static metrics::Counter* counter = metrics::Registry::Get().RegisterCounter(
      "bdi.linkage.candidate_pairs");
  return *counter;
}

metrics::Counter& ComparisonsCounter() {
  static metrics::Counter* counter =
      metrics::Registry::Get().RegisterCounter("bdi.linkage.comparisons");
  return *counter;
}

metrics::Counter& MatchesCounter() {
  static metrics::Counter* counter =
      metrics::Registry::Get().RegisterCounter("bdi.linkage.matches");
  return *counter;
}

}  // namespace

std::unique_ptr<PairScorer> MakeScorer(ScorerKind kind, double threshold) {
  std::unique_ptr<PairScorer> scorer;
  switch (kind) {
    case ScorerKind::kLinear:
      scorer = std::make_unique<LinearScorer>();
      break;
    case ScorerKind::kRule:
      scorer = std::make_unique<RuleScorer>();
      break;
    case ScorerKind::kLearned:
      scorer = std::make_unique<LearnedScorer>();
      break;
  }
  scorer->set_threshold(threshold);
  return scorer;
}

Linker::Linker(const Dataset* dataset, const LinkerConfig& config,
               const schema::MediatedSchema* schema,
               const schema::ValueNormalizer* normalizer)
    : dataset_(dataset),
      config_(config),
      stats_(schema::AttributeStatistics::Compute(*dataset)),
      roles_(AttrRoles::Detect(stats_)),
      extractor_(dataset, &roles_, schema, normalizer, config.num_threads),
      scorer_(MakeScorer(config.scorer, config.threshold)) {}

void Linker::SetScorer(std::unique_ptr<PairScorer> scorer) {
  scorer_ = std::move(scorer);
}

std::unique_ptr<Blocker> Linker::MakeBlocker() const {
  switch (config_.blocker) {
    case BlockerKind::kToken:
      return std::make_unique<TokenBlocker>();
    case BlockerKind::kIdentifier:
      return std::make_unique<IdentifierBlocker>();
    case BlockerKind::kSortedNeighborhood:
      return std::make_unique<SortedNeighborhoodBlocker>();
    case BlockerKind::kCanopy:
      return std::make_unique<CanopyBlocker>();
    case BlockerKind::kTokenPlusIdentifier:
      return nullptr;  // handled specially in Run()
  }
  return nullptr;
}

LinkageResult Linker::Run() {
  LinkageResult result;
  WallTimer timer;
  trace::StageSpan linkage_span("linkage");
  linkage_span.AddItems(dataset_->num_records());

  // 1. Blocking (tokenization and pair expansion honor the linker's
  // thread budget).
  std::vector<CandidatePair> candidates;
  {
    trace::StageSpan span("blocking");
    std::vector<Block> blocks;
    if (config_.blocker == BlockerKind::kTokenPlusIdentifier) {
      IdentifierBlocker id_blocker;
      id_blocker.set_num_threads(config_.num_threads);
      blocks = id_blocker.MakeBlocksAll(*dataset_, &roles_);
      TokenBlocker token_blocker;
      token_blocker.set_num_threads(config_.num_threads);
      std::vector<Block> token_blocks =
          token_blocker.MakeBlocksAll(*dataset_, &roles_);
      blocks.insert(blocks.end(),
                    std::make_move_iterator(token_blocks.begin()),
                    std::make_move_iterator(token_blocks.end()));
    } else {
      std::unique_ptr<Blocker> blocker = MakeBlocker();
      blocker->set_num_threads(config_.num_threads);
      blocks = blocker->MakeBlocksAll(*dataset_, &roles_);
    }
    BlocksCounter().Add(blocks.size());
    if (config_.use_meta_blocking) {
      candidates = MetaBlock(*dataset_, blocks, config_.meta_blocking,
                             config_.num_threads);
    } else {
      candidates = BlocksToPairs(*dataset_, blocks,
                                 config_.meta_blocking.allow_same_source,
                                 config_.num_threads);
    }
    span.AddItems(candidates.size());
    CandidatesCounter().Add(candidates.size());
  }
  result.blocking_seconds = timer.ElapsedSeconds();
  result.num_candidates = candidates.size();

  // 2. Pairwise matching through the bound-ranked scheduler
  // (ScorePairsProgressive). Budget-deferred candidates stay unscored;
  // unbudgeted, every slot is scored and the per-slot scores do not
  // depend on the thread count.
  timer.Reset();
  {
    trace::StageSpan span("matching");
    span.AddItems(candidates.size());
    ComparisonsCounter().Add(candidates.size());
    std::vector<double> scores(candidates.size());
    std::vector<uint8_t> scored(candidates.size(), 0);
    ProgressiveStats stats = ScorePairsProgressive(
        extractor_, *scorer_, candidates.data(), candidates.size(),
        config_.comparison_budget, config_.budget_ms, config_.num_threads,
        scores.data(), scored.data());
    result.num_prefiltered = stats.num_skipped;
    result.num_scheduled = stats.num_scheduled;
    result.num_deferred = stats.num_deferred;
    // Match iff score >= the scorer's own threshold:
    // PairScorer::threshold() is authoritative.
    const double threshold = scorer_->threshold();
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (scored[i] != 0 && scores[i] >= threshold) {
        result.matches.push_back(ScoredPair{candidates[i], scores[i]});
      }
    }
    MatchesCounter().Add(result.matches.size());
  }
  result.matching_seconds = timer.ElapsedSeconds();
  result.num_matches = result.matches.size();
  // The matcher is done with the candidates; keep them for diagnostics
  // without the copy a pre-matching assignment would cost.
  last_candidates_ = std::move(candidates);

  // 3. Clustering.
  timer.Reset();
  {
    trace::StageSpan span("clustering");
    span.AddItems(result.matches.size());
    result.clusters = ClusterRecords(dataset_->num_records(),
                                     result.matches, config_.clustering);
  }
  result.clustering_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace bdi::linkage
