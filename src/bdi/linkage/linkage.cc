#include "bdi/linkage/linkage.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bdi/common/executor.h"
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

namespace {

AttrRoles DetectRoles(const Dataset& dataset,
                      const schema::AttributeStatistics* stats) {
  if (stats != nullptr) return AttrRoles::Detect(*stats);
  return AttrRoles::Detect(schema::AttributeStatistics::Compute(dataset));
}

}  // namespace

Linker::Linker(const Dataset* dataset, const LinkerConfig& config,
               const schema::MediatedSchema* schema,
               const schema::ValueNormalizer* normalizer,
               const schema::AttributeStatistics* stats)
    : dataset_(dataset),
      config_(config),
      roles_(DetectRoles(*dataset, stats)),
      extractor_(dataset, &roles_, schema, normalizer, config.num_threads),
      scorer_(MakeScorer(config.scorer, config.threshold)),
      families_{KeyFamily{AttrRole::kIdentifier, kIdentifierKeyMinLen,
                          kIdentifierMaxPosting, {}, {}},
                KeyFamily{AttrRole::kName, kNameKeyMinLen, kNameMaxPosting,
                          {}, {}}} {
  PrepareNewRecords();
}

void Linker::ResetIndex() {
  for (KeyFamily& family : families_) {
    family.keys = text::TokenInterner();
    family.postings.clear();
  }
  record_keys_.clear();
  edges_.clear();
  last_candidates_.clear();
  next_record_ = 0;
  num_candidates_ = 0;
}

void Linker::PrepareNewRecords() {
  extractor_.Prepare();
  known_attrs_.resize(dataset_->num_sources());
  for (; num_prepared_ < dataset_->num_records(); ++num_prepared_) {
    const Record& record =
        dataset_->record(static_cast<RecordIdx>(num_prepared_));
    std::vector<bool>& known = known_attrs_[record.source];
    for (const Field& field : record.fields) {
      if (static_cast<size_t>(field.attr) >= known.size()) {
        known.resize(static_cast<size_t>(field.attr) + 1);
      }
      known[field.attr] = true;
    }
  }
}

std::vector<CandidatePair> Linker::IndexNewRecords() {
  const size_t begin = next_record_;
  const size_t end = dataset_->num_records();
  ++batch_;
  // Keys are tokenized in parallel and interned serially in record order,
  // so postings list their records in ascending order.
  std::vector<std::array<std::vector<std::string>, 2>> keys(end - begin);
  ParallelFor(
      end - begin,
      [&](size_t i) {
        const RecordIdx idx = static_cast<RecordIdx>(begin + i);
        for (size_t f = 0; f < families_.size(); ++f) {
          keys[i][f] = BlockingKeys(*dataset_, idx, &roles_,
                                    families_[f].role, families_[f].min_len);
        }
      },
      config_.num_threads);
  std::vector<uint32_t> touched;  // encoded keys, first-touch order
  record_keys_.resize(end);
  for (size_t i = 0; i < keys.size(); ++i) {
    const RecordIdx idx = static_cast<RecordIdx>(begin + i);
    std::vector<uint32_t>& encoded = record_keys_[idx];
    for (size_t f = 0; f < families_.size(); ++f) {
      KeyFamily& family = families_[f];
      for (const std::string& key : keys[i][f]) {
        const text::TokenId id = family.keys.Intern(key);
        if (id == family.postings.size()) family.postings.emplace_back();
        Posting& posting = family.postings[id];
        const uint32_t code = (id << 1) | static_cast<uint32_t>(f);
        if (posting.batch != batch_) {
          posting.batch = batch_;
          posting.old_size = posting.size;
          touched.push_back(code);
        }
        if (++posting.size <= family.max_posting) {
          posting.records.push_back(idx);
        }
        encoded.push_back(code);
      }
    }
    std::sort(encoded.begin(), encoded.end());
  }

  // Live postings expand their new members; postings that crossed their
  // cap in this batch retract the pairs of their old members that no
  // other live key supports.
  std::vector<PostingSlice> slices;
  std::vector<CandidatePair> retract;
  for (uint32_t code : touched) {
    const KeyFamily& family = families_[code & 1];
    const Posting& posting = family.postings[code >> 1];
    if (posting.size <= family.max_posting) {
      if (posting.size >= 2) {
        slices.push_back(PostingSlice{posting.records.data(), posting.size,
                                      posting.old_size});
      }
    } else if (posting.old_size <= family.max_posting) {
      for (size_t j = 1; j < posting.old_size; ++j) {
        for (size_t i = 0; i < j; ++i) {
          const RecordIdx a = posting.records[i], b = posting.records[j];
          if (dataset_->record(a).source != dataset_->record(b).source) {
            retract.push_back(CandidatePair{a, b});
          }
        }
      }
    }
  }
  BlocksCounter().Add(slices.size());
  std::vector<CandidatePair> candidates =
      PostingsToPairs(*dataset_, slices, /*allow_same_source=*/false,
                      config_.num_threads);
  if (!retract.empty()) {
    std::sort(retract.begin(), retract.end());
    retract.erase(std::unique(retract.begin(), retract.end()),
                  retract.end());
    retract.erase(std::remove_if(retract.begin(), retract.end(),
                                 [&](const CandidatePair& pair) {
                                   return SharesLiveKey(pair.a, pair.b);
                                 }),
                  retract.end());
    num_candidates_ -= retract.size();
    edges_.erase(std::remove_if(edges_.begin(), edges_.end(),
                                [&](const ScoredPair& edge) {
                                  return std::binary_search(
                                      retract.begin(), retract.end(),
                                      edge.pair);
                                }),
                 edges_.end());
  }
  for (uint32_t code : touched) {
    KeyFamily& family = families_[code & 1];
    Posting& posting = family.postings[code >> 1];
    if (posting.size > family.max_posting) {
      std::vector<RecordIdx>().swap(posting.records);
    }
  }
  next_record_ = end;
  return candidates;
}

bool Linker::SharesLiveKey(RecordIdx a, RecordIdx b) const {
  const std::vector<uint32_t>& x = record_keys_[a];
  const std::vector<uint32_t>& y = record_keys_[b];
  size_t i = 0, j = 0;
  while (i < x.size() && j < y.size()) {
    if (x[i] < y[j]) {
      ++i;
    } else if (y[j] < x[i]) {
      ++j;
    } else {
      const KeyFamily& family = families_[x[i] & 1];
      if (family.postings[x[i] >> 1].size <= family.max_posting) return true;
      ++i;
      ++j;
    }
  }
  return false;
}

void Linker::LinkNewRecords(LinkageResult* out) {
  WallTimer timer;
  std::vector<CandidatePair> candidates;
  {
    trace::StageSpan span("blocking");
    candidates = IndexNewRecords();
    span.AddItems(candidates.size());
    CandidatesCounter().Add(candidates.size());
  }
  out->blocking_seconds = timer.ElapsedSeconds();
  out->num_candidates = candidates.size();
  num_candidates_ += candidates.size();

  // Pairwise matching through the bound-ranked scheduler. Budget-deferred
  // candidates stay unscored; unbudgeted, every slot is scored and the
  // per-slot scores do not depend on the thread count or on which batch
  // a pair arrived in.
  timer.Reset();
  {
    trace::StageSpan span("matching");
    span.AddItems(candidates.size());
    ComparisonsCounter().Add(candidates.size());
    std::vector<double> scores(candidates.size());
    std::vector<uint8_t> scored(candidates.size(), 0);
    last_progressive_ = ScorePairsProgressive(
        extractor_, *scorer_, candidates.data(), candidates.size(),
        config_.comparison_budget, config_.budget_ms, config_.num_threads,
        scores.data(), scored.data());
    out->num_prefiltered = last_progressive_.num_skipped;
    out->num_scheduled = last_progressive_.num_scheduled;
    out->num_deferred = last_progressive_.num_deferred;
    // Match iff score >= the scorer's own threshold:
    // PairScorer::threshold() is authoritative.
    const double threshold = scorer_->threshold();
    out->matches.clear();
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (scored[i] != 0 && scores[i] >= threshold) {
        out->matches.push_back(ScoredPair{candidates[i], scores[i]});
      }
    }
    MatchesCounter().Add(out->matches.size());
  }
  out->matching_seconds = timer.ElapsedSeconds();
  out->num_matches = out->matches.size();
  // Every new match has a new endpoint, so it is not among the edges yet.
  const size_t old_edges = edges_.size();
  edges_.insert(edges_.end(), out->matches.begin(), out->matches.end());
  std::inplace_merge(edges_.begin(), edges_.begin() + old_edges,
                     edges_.end(),
                     [](const ScoredPair& x, const ScoredPair& y) {
                       return x.pair < y.pair;
                     });
  last_candidates_ = std::move(candidates);
}

LinkageResult Linker::Run() {
  LinkageResult result;
  trace::StageSpan linkage_span("linkage");
  linkage_span.AddItems(dataset_->num_records());
  PrepareNewRecords();
  ResetIndex();
  LinkNewRecords(&result);

  WallTimer timer;
  {
    trace::StageSpan span("clustering");
    span.AddItems(result.matches.size());
    result.clusters = ClusterRecords(dataset_->num_records(),
                                     result.matches, config_.clustering);
  }
  result.clustering_seconds = timer.ElapsedSeconds();
  return result;
}

size_t Linker::AddNewRecords(const schema::AttributeStatistics* stats) {
  if (stats != nullptr) {
    AttrRoles roles = AttrRoles::Detect(*stats);
    bool changed = false;
    for (size_t source = 0; source < known_attrs_.size(); ++source) {
      for (size_t attr = 0; attr < known_attrs_[source].size(); ++attr) {
        if (!known_attrs_[source][attr]) continue;
        const SourceAttr sa{static_cast<SourceId>(source),
                            static_cast<AttrId>(attr)};
        changed = changed || roles.RoleOf(sa) != roles_.RoleOf(sa);
      }
    }
    roles_ = std::move(roles);
    if (changed) {
      // Keys and features of indexed records depend on their roles.
      ResetIndex();
      extractor_.Rebuild();
    }
  }
  PrepareNewRecords();
  LinkageResult batch;
  LinkNewRecords(&batch);
  return batch.num_candidates;
}

std::vector<CandidatePair> Linker::Candidates() const {
  std::vector<PostingSlice> slices;
  for (const KeyFamily& family : families_) {
    for (const Posting& posting : family.postings) {
      if (posting.size >= 2 && posting.size <= family.max_posting) {
        slices.push_back(PostingSlice{posting.records.data(), posting.size, 0});
      }
    }
  }
  return PostingsToPairs(*dataset_, slices, /*allow_same_source=*/false,
                         config_.num_threads);
}

EntityClusters Linker::Clusters() const {
  return ClusterRecords(next_record_, edges_, config_.clustering);
}

}  // namespace bdi::linkage
