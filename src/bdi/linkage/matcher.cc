#include "bdi/linkage/matcher.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "bdi/common/executor.h"
#include "bdi/common/logging.h"
#include "bdi/common/metrics.h"
#include "bdi/common/string_util.h"
#include "bdi/text/similarity.h"
#include "bdi/text/tokenizer.h"

namespace bdi::linkage {

namespace {

metrics::Gauge& InternedTokensGauge() {
  static metrics::Gauge* gauge =
      metrics::Registry::Get().RegisterGauge("bdi.linkage.interner.tokens");
  return *gauge;
}

}  // namespace

FeatureExtractor::FeatureExtractor(const Dataset* dataset,
                                   const AttrRoles* roles,
                                   const schema::MediatedSchema* schema,
                                   const schema::ValueNormalizer* normalizer,
                                   size_t num_threads)
    : dataset_(dataset),
      roles_(roles),
      schema_(schema),
      normalizer_(normalizer),
      num_threads_(num_threads) {
  BDI_CHECK(dataset_ != nullptr);
  Prepare();
}

void FeatureExtractor::Prepare() {
  size_t old_size = cache_.size();
  size_t grown = dataset_->num_records() - old_size;
  // Per-record tokenization is independent; build the new suffix in
  // parallel, staged as strings.
  std::vector<StagedCache> staged(grown);
  ParallelFor(
      grown,
      [&](size_t i) {
        staged[i] = BuildStaged(static_cast<RecordIdx>(old_size + i));
      },
      num_threads_);
  // Intern serially in record order: ids come out deterministic and the
  // interner is immutable — hence lock-free — during the concurrent
  // Extract phase.
  cache_.resize(dataset_->num_records());
  for (size_t i = 0; i < grown; ++i) {
    RecordCache& cache = cache_[old_size + i];
    cache.name_tokens = text::InternTokenSet(interner_, staged[i].name_tokens);
    cache.name_words = text::InternTokens(interner_, staged[i].name_words);
    cache.id_tokens = text::InternTokenSet(interner_, staged[i].id_tokens);
    cache.ids_from_role = staged[i].ids_from_role;
    cache.aligned_values = std::move(staged[i].aligned_values);
    cache.aligned_numbers = std::move(staged[i].aligned_numbers);
  }
  // Bound signatures for tokens interned above: once per distinct token,
  // so the prefilter's per-pair work never touches the strings.
  for (text::TokenId id = static_cast<text::TokenId>(signatures_.size());
       id < interner_.size(); ++id) {
    signatures_.push_back(text::MakeTokenSignature(interner_.token(id)));
  }
  if (metrics::Enabled()) {
    InternedTokensGauge().Set(static_cast<int64_t>(interner_.size()));
  }
}

void FeatureExtractor::Rebuild() {
  cache_.clear();
  interner_ = text::TokenInterner();
  signatures_.clear();
  Prepare();
}

FeatureExtractor::StagedCache FeatureExtractor::BuildStaged(
    RecordIdx idx) const {
  const Record& record = dataset_->record(idx);
  StagedCache cache;
  std::string name_text;
  std::string id_text;
  bool have_roles = roles_ != nullptr;
  for (const Field& field : record.fields) {
    SourceAttr sa{record.source, field.attr};
    AttrRole role = have_roles ? roles_->RoleOf(sa) : AttrRole::kOther;
    if (role == AttrRole::kName) {
      name_text += field.value;
      name_text += ' ';
    } else if (role == AttrRole::kIdentifier) {
      id_text += field.value;
      id_text += ' ';
    } else {
      int key;
      std::string value;
      if (schema_ != nullptr) {
        key = schema_->ClusterOf(sa);
        if (key < 0) continue;
        value = normalizer_ != nullptr
                    ? normalizer_->Normalize(sa, field.value)
                    : ToLower(NormalizeWhitespace(field.value));
      } else {
        key = field.attr;
        value = ToLower(NormalizeWhitespace(field.value));
      }
      cache.aligned_values.emplace_back(key, std::move(value));
    }
  }
  if (name_text.empty()) {
    // No detected name field: fall back to the title-position field (pages
    // lead with the display name). Concatenating *all* fields here would
    // leak numeric spec fragments into the name and identifier evidence.
    if (!record.fields.empty()) {
      name_text = record.fields[0].value;
    }
  }
  // Monge-Elkan ran over the whitespace-normalized name text; tokenizing
  // that same string here keeps the word sequence (order and duplicates)
  // exactly what the per-pair tokenizer used to produce.
  cache.name_words = text::WordTokens(NormalizeWhitespace(name_text));
  cache.name_tokens = text::TokenSet(name_text);
  // Identifier evidence. When no identifier field was detected, mine the
  // record's text instead — but only letter+digit tokens of length >= 5:
  // pure digit runs (years, weights, prices) collide far too easily to be
  // decisive.
  if (id_text.empty()) {
    std::string all_text;
    for (const Field& field : record.fields) {
      all_text += field.value;
      all_text += ' ';
    }
    cache.id_tokens = text::IdentifierTokens(all_text, /*min_len=*/5,
                                             /*require_letter=*/true);
    cache.ids_from_role = false;
  } else {
    cache.id_tokens = text::IdentifierTokens(id_text, /*min_len=*/4);
    cache.ids_from_role = true;
  }
  std::sort(cache.aligned_values.begin(), cache.aligned_values.end());
  // Parse each aligned value once, after the sort so the numbers stay
  // parallel to the final value order. NaN marks "not numeric" —
  // NumericSimilarityValues maps it to the exact 0.0 the per-pair string
  // parse would have produced.
  cache.aligned_numbers.reserve(cache.aligned_values.size());
  for (const auto& [key, value] : cache.aligned_values) {
    double parsed = std::numeric_limits<double>::quiet_NaN();
    ParseLeadingDouble(value, &parsed, nullptr);
    cache.aligned_numbers.push_back(parsed);
  }
  return cache;
}

namespace {

/// Identifier overlap over the id-sorted interned sets: decisive when both
/// sides' identifiers come from detected identifier fields, weaker when
/// either side's were mined from free text (which can mention *other*
/// products' identifiers). Shared by the full extractor and the prefilter
/// (the merge is cheap enough to be part of the bounds, and sharing the
/// code keeps the two paths identical).
double IdExactFeature(const std::vector<text::TokenId>& a_ids, bool a_role,
                      const std::vector<text::TokenId>& b_ids, bool b_role) {
  size_t i = 0, j = 0;
  while (i < a_ids.size() && j < b_ids.size()) {
    if (a_ids[i] == b_ids[j]) {
      return a_role && b_role ? 1.0 : 0.7;
    }
    a_ids[i] < b_ids[j] ? ++i : ++j;
  }
  return 0.0;
}

}  // namespace

PairFeatures FeatureExtractor::Extract(RecordIdx a, RecordIdx b,
                                       text::SimilarityScratch& scratch)
    const {
  BDI_CHECK(static_cast<size_t>(a) < cache_.size() &&
            static_cast<size_t>(b) < cache_.size())
      << "FeatureExtractor::Prepare() not called after dataset growth";
  const RecordCache& ca = cache_[a];
  const RecordCache& cb = cache_[b];
  PairFeatures features;

  features.id_exact = IdExactFeature(ca.id_tokens, ca.ids_from_role,
                                     cb.id_tokens, cb.ids_from_role);

  features.name_jaccard =
      text::JaccardSimilarityIds(ca.name_tokens, cb.name_tokens);
  features.name_similarity = text::SymmetricMongeElkan(
      interner_, ca.name_words, cb.name_words, scratch);

  // Aligned value agreement over shared keys. Numeric closeness counts the
  // fraction of shared numeric attributes agreeing within a tight relative
  // tolerance — averaging a soft kernel instead would sit near 0.8 for two
  // *random* products (most numeric specs live in narrow ranges) and stop
  // discriminating.
  constexpr double kNumericExact = 0.98;  // within 2%: same value reformatted
  constexpr double kNumericClose = 0.95;  // within 5%
  size_t shared = 0, agree = 0, numeric_shared = 0, numeric_agree = 0;
  size_t i = 0, j = 0;
  while (i < ca.aligned_values.size() && j < cb.aligned_values.size()) {
    int ka = ca.aligned_values[i].first, kb = cb.aligned_values[j].first;
    if (ka == kb) {
      const std::string& va = ca.aligned_values[i].second;
      const std::string& vb = cb.aligned_values[j].second;
      ++shared;
      // Parsed once per record in Prepare; bitwise the same value
      // NumericSimilarity(va, vb) computes, without the per-pair parse.
      double ns = text::NumericSimilarityValues(ca.aligned_numbers[i],
                                                cb.aligned_numbers[j]);
      // Numbers that agree within round-off count as agreeing values.
      if (va == vb || ns >= kNumericExact) ++agree;
      if (ns > 0.0) {
        ++numeric_shared;
        if (ns >= kNumericClose) ++numeric_agree;
      }
      ++i;
      ++j;
    } else if (ka < kb) {
      ++i;
    } else {
      ++j;
    }
  }
  features.value_agreement =
      shared == 0 ? 0.0
                  : static_cast<double>(agree) / static_cast<double>(shared);
  features.numeric_closeness =
      numeric_shared == 0 ? 0.0
                          : static_cast<double>(numeric_agree) /
                                static_cast<double>(numeric_shared);
  return features;
}

PairFeatures FeatureExtractor::ExtractBounds(RecordIdx a, RecordIdx b,
                                             text::SimilarityScratch& scratch)
    const {
  BDI_CHECK(static_cast<size_t>(a) < cache_.size() &&
            static_cast<size_t>(b) < cache_.size())
      << "FeatureExtractor::Prepare() not called after dataset growth";
  const RecordCache& ca = cache_[a];
  const RecordCache& cb = cache_[b];
  PairFeatures bounds;
  // Exact (and cheap): the same integer merges the full extractor runs.
  bounds.id_exact = IdExactFeature(ca.id_tokens, ca.ids_from_role,
                                   cb.id_tokens, cb.ids_from_role);
  bounds.name_jaccard =
      text::JaccardSimilarityIds(ca.name_tokens, cb.name_tokens);
  // Bounded: the Monge-Elkan matrix over signatures instead of strings.
  bounds.name_similarity = text::SymmetricMongeElkanUpperBound(
      signatures_, ca.name_words, cb.name_words, scratch);
  // The aligned-value features need no key merge for a bound: both are
  // fractions in [0, 1], and both are exactly 0 when either side has no
  // aligned values (no key can be shared).
  double value_bound =
      ca.aligned_values.empty() || cb.aligned_values.empty() ? 0.0 : 1.0;
  bounds.value_agreement = value_bound;
  bounds.numeric_closeness = value_bound;
  return bounds;
}

LinearScorer::LinearScorer()
    : LinearScorer({0.35, 0.25, 0.15, 0.15, 0.10}) {}

LinearScorer::LinearScorer(std::array<double, PairFeatures::kCount> weights)
    : weights_(weights) {
  threshold_ = 0.5;
  for (double w : weights_) total_weight_ += w;
}

double LinearScorer::Score(const PairFeatures& features) const {
  std::array<double, PairFeatures::kCount> f = features.AsArray();
  double score = 0.0;
  for (size_t i = 0; i < f.size(); ++i) {
    score += weights_[i] * f[i];
  }
  return total_weight_ == 0.0 ? 0.0 : score / total_weight_;
}

double LinearScorer::ScoreUpperBound(const PairFeatures& bounds) const {
  // Negative weights (caller-supplied) can only pull a non-negative
  // feature's term below zero; dropping them keeps the bound sound. A
  // non-positive total weight has no meaningful normalization — decline
  // to bound rather than divide by it.
  if (total_weight_ <= 0.0) return 1.0;
  std::array<double, PairFeatures::kCount> f = bounds.AsArray();
  double score = 0.0;
  for (size_t i = 0; i < f.size(); ++i) {
    score += std::max(weights_[i], 0.0) * f[i];
  }
  return score / total_weight_;
}

RuleScorer::RuleScorer(double name_threshold, double value_threshold)
    : name_threshold_(name_threshold), value_threshold_(value_threshold) {
  threshold_ = 0.5;
}

double RuleScorer::Score(const PairFeatures& features) const {
  if (features.id_exact >= 1.0) return 1.0;
  // A mined (non-role) identifier match needs the names to agree too.
  if (features.id_exact >= 0.7 && features.name_similarity >= 0.7) {
    return 0.95;
  }
  // Corroboration is value agreement alone: numeric_closeness has too high
  // a coincidence baseline on narrow-range attributes to gate a match.
  double corroboration = features.value_agreement;
  if (features.name_similarity >= name_threshold_ &&
      corroboration >= value_threshold_) {
    return 0.5 + 0.5 * features.name_similarity * corroboration;
  }
  return 0.4 * features.name_similarity + 0.1 * corroboration;
}

double RuleScorer::ScoreUpperBound(const PairFeatures& bounds) const {
  // Max over the branches reachable under `bounds`. A branch's guard can
  // only be satisfied by some feature vector <= bounds when the bound
  // itself clears the guard (guards are lower-bound comparisons), and each
  // branch expression is monotone in the features, so evaluating it at the
  // bound over-approximates every reachable score.
  if (bounds.id_exact >= 1.0) return 1.0;
  double best = 0.4 * bounds.name_similarity + 0.1 * bounds.value_agreement;
  if (bounds.id_exact >= 0.7 && bounds.name_similarity >= 0.7) {
    best = std::max(best, 0.95);
  }
  if (bounds.name_similarity >= name_threshold_ &&
      bounds.value_agreement >= value_threshold_) {
    best = std::max(
        best, 0.5 + 0.5 * bounds.name_similarity * bounds.value_agreement);
  }
  return best;
}

LearnedScorer::LearnedScorer() { weights_.fill(0.0); }

namespace {
double Sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }
}  // namespace

void LearnedScorer::Train(const std::vector<PairFeatures>& features,
                          const std::vector<int>& labels, int epochs,
                          double learning_rate) {
  BDI_CHECK(features.size() == labels.size());
  if (features.empty()) return;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    double lr = learning_rate / (1.0 + 0.1 * epoch);
    for (size_t n = 0; n < features.size(); ++n) {
      std::array<double, PairFeatures::kCount> x = features[n].AsArray();
      double z = bias_;
      for (size_t i = 0; i < x.size(); ++i) z += weights_[i] * x[i];
      double error = static_cast<double>(labels[n]) - Sigmoid(z);
      bias_ += lr * error;
      for (size_t i = 0; i < x.size(); ++i) {
        weights_[i] += lr * error * x[i];
      }
    }
  }
}

double LearnedScorer::Score(const PairFeatures& features) const {
  std::array<double, PairFeatures::kCount> x = features.AsArray();
  double z = bias_;
  for (size_t i = 0; i < x.size(); ++i) z += weights_[i] * x[i];
  return Sigmoid(z);
}

double LearnedScorer::ScoreUpperBound(const PairFeatures& bounds) const {
  // Sigmoid is monotone, so bounding the logit bounds the score; trained
  // weights may be negative, and those terms only lower the logit of a
  // non-negative feature, so the positive-weight part bounds it.
  std::array<double, PairFeatures::kCount> x = bounds.AsArray();
  double z = bias_;
  for (size_t i = 0; i < x.size(); ++i) z += std::max(weights_[i], 0.0) * x[i];
  return Sigmoid(z);
}

}  // namespace bdi::linkage
