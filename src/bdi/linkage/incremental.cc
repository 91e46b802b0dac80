#include "bdi/linkage/incremental.h"

#include <algorithm>
#include <cstdint>

#include "bdi/common/logging.h"
#include "bdi/text/tokenizer.h"

namespace bdi::linkage {

namespace {

/// Identifier tokens (model numbers, SKUs) shorter than this are not
/// blocking keys.
constexpr size_t kIdMinTokenLen = 4;
/// Name tokens shorter than this are not blocking keys.
constexpr size_t kMinNameTokenLen = 3;
/// Name-token postings longer than this stop generating candidates
/// (stop-word guard); postings stop growing at four times the cap.
constexpr size_t kMaxPosting = 200;

}  // namespace

IncrementalLinker::IncrementalLinker(const Dataset* dataset,
                                     const Config& config)
    : dataset_(dataset),
      config_(config),
      stats_(schema::AttributeStatistics::Compute(*dataset)),
      roles_(AttrRoles::Detect(stats_)),
      extractor_(dataset, &roles_),
      scorer_(MakeScorer(config.scorer, config.threshold)) {
  BDI_CHECK(dataset_->num_records() > 0)
      << "IncrementalLinker needs an initial corpus to learn roles from";
  for (const Record& record : dataset_->records()) {
    for (const Field& field : record.fields) {
      known_attrs_.insert(SourceAttr{record.source, field.attr});
    }
  }
}

bool IncrementalLinker::MaybeRefreshRoles() {
  bool unseen = false;
  for (size_t r = next_record_; r < dataset_->num_records(); ++r) {
    const Record& record = dataset_->record(static_cast<RecordIdx>(r));
    for (const Field& field : record.fields) {
      if (known_attrs_.insert(SourceAttr{record.source, field.attr})
              .second) {
        unseen = true;
      }
    }
  }
  if (!unseen) return false;
  // New source attributes: role statistics must be re-learned over the
  // whole corpus, and the cached per-record features refreshed.
  stats_ = schema::AttributeStatistics::Compute(*dataset_);
  roles_ = AttrRoles::Detect(stats_);
  extractor_.Rebuild();
  return true;
}

std::vector<RecordIdx> IncrementalLinker::CandidatesFor(RecordIdx idx) const {
  const Record& record = dataset_->record(idx);
  std::vector<RecordIdx> candidates;
  auto harvest = [&](const std::unordered_map<std::string,
                                              std::vector<RecordIdx>>& index,
                     const std::vector<std::string>& keys,
                     size_t max_posting) {
    for (const std::string& key : keys) {
      auto it = index.find(key);
      if (it == index.end()) continue;
      if (it->second.size() > max_posting) continue;
      for (RecordIdx other : it->second) {
        if (other == idx || removed_.count(other) > 0) continue;
        if (dataset_->record(other).source == record.source) continue;
        candidates.push_back(other);
      }
    }
  };

  std::string all_text;
  for (const Field& field : record.fields) {
    all_text += field.value;
    all_text += ' ';
  }
  harvest(id_index_,
          text::IdentifierTokens(all_text, kIdMinTokenLen),
          /*max_posting=*/SIZE_MAX);
  std::vector<std::string> name_tokens;
  for (const std::string& token : text::TokenSet(all_text)) {
    if (token.size() >= kMinNameTokenLen) {
      name_tokens.push_back(token);
    }
  }
  harvest(name_index_, name_tokens, kMaxPosting);

  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  return candidates;
}

void IncrementalLinker::IndexRecord(RecordIdx idx) {
  const Record& record = dataset_->record(idx);
  std::string all_text;
  for (const Field& field : record.fields) {
    all_text += field.value;
    all_text += ' ';
  }
  for (const std::string& token :
       text::IdentifierTokens(all_text, kIdMinTokenLen)) {
    id_index_[token].push_back(idx);
  }
  for (const std::string& token : text::TokenSet(all_text)) {
    if (token.size() < kMinNameTokenLen) continue;
    std::vector<RecordIdx>& posting = name_index_[token];
    // Oversized postings are dead weight; stop growing well past the cap.
    if (posting.size() <= 4 * kMaxPosting) posting.push_back(idx);
  }
}

size_t IncrementalLinker::AddNewRecords() {
  MaybeRefreshRoles();
  extractor_.Prepare();
  const double threshold = scorer_->threshold();
  // Candidate generation first, scoring second: each new record harvests
  // its blocking partners and is then indexed, so later arrivals in the
  // same batch see it — the exact candidate sets and pair order the old
  // score-as-you-go loop produced, but accumulated into one batch. That
  // batch view is what lets a comparison budget rank pairs *across* the
  // whole update instead of record by record.
  std::vector<CandidatePair> pairs;
  for (; next_record_ < dataset_->num_records(); ++next_record_) {
    RecordIdx idx = static_cast<RecordIdx>(next_record_);
    for (RecordIdx other : CandidatesFor(idx)) {
      // Lane order (other, idx) mirrors the historical Extract argument
      // order, keeping scores bitwise stable across the refactor.
      pairs.push_back(CandidatePair{other, idx});
    }
    IndexRecord(idx);
  }
  size_t comparisons = pairs.size();
  // Bound-ranked scheduling across the whole update, serial (the
  // incremental path is the serving layer's latency-bound call; its
  // batches are small and the caller owns threading). Unbudgeted, every
  // survivor is compared; a lane whose bound cannot reach the threshold
  // records that bound and can never become an edge.
  std::vector<double> scores(pairs.size());
  std::vector<uint8_t> scored(pairs.size(), 0);
  last_progressive_ = ScorePairsProgressive(
      extractor_, *scorer_, pairs.data(), pairs.size(),
      config_.comparison_budget, config_.budget_ms, /*num_threads=*/1,
      scores.data(), scored.data());
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (scored[i] == 0) continue;  // budget-deferred or closure-pruned
    if (scores[i] >= threshold) {
      CandidatePair pair{std::min(pairs[i].a, pairs[i].b),
                         std::max(pairs[i].a, pairs[i].b)};
      edges_.push_back(ScoredPair{pair, scores[i]});
    }
  }
  total_comparisons_ += comparisons;
  return comparisons;
}

void IncrementalLinker::RemoveRecords(const std::vector<RecordIdx>& records) {
  removed_.insert(records.begin(), records.end());
}

EntityClusters IncrementalLinker::Clusters() const {
  std::vector<ScoredPair> live_edges;
  live_edges.reserve(edges_.size());
  for (const ScoredPair& edge : edges_) {
    if (removed_.count(edge.pair.a) > 0 || removed_.count(edge.pair.b) > 0) {
      continue;
    }
    live_edges.push_back(edge);
  }
  return ClusterRecords(next_record_, live_edges,
                        ClusteringMethod::kConnectedComponents);
}

}  // namespace bdi::linkage
