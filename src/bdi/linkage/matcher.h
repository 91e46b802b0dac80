#ifndef BDI_LINKAGE_MATCHER_H_
#define BDI_LINKAGE_MATCHER_H_

#include <array>
#include <string>
#include <vector>

#include "bdi/linkage/attr_roles.h"
#include "bdi/linkage/blocking.h"
#include "bdi/model/dataset.h"
#include "bdi/schema/mediated_schema.h"
#include "bdi/schema/value_normalizer.h"
#include "bdi/text/interner.h"
#include "bdi/text/similarity.h"

namespace bdi::linkage {

/// Comparable evidence for one record pair.
struct PairFeatures {
  static constexpr size_t kCount = 5;

  /// 1.0 when an identifier-role token is shared; 0.7 when the shared
  /// identifier was merely mined from free text (weaker: "related product"
  /// mentions collide); 0 otherwise.
  double id_exact = 0.0;
  double name_similarity = 0.0;   ///< Monge-Elkan over name text
  double name_jaccard = 0.0;      ///< token Jaccard over name text
  double value_agreement = 0.0;   ///< agreeing fraction of aligned attrs
  double numeric_closeness = 0.0; ///< mean numeric similarity, aligned attrs

  std::array<double, kCount> AsArray() const {
    return {id_exact, name_similarity, name_jaccard, value_agreement,
            numeric_closeness};
  }
};

/// Computes PairFeatures with per-record caching. When a mediated schema and
/// value normalizer are supplied, value agreement is computed over aligned
/// attribute clusters with normalized values; otherwise it falls back to
/// exact raw-attribute-name alignment.
///
/// `Prepare()` must be called after the dataset grows (incremental
/// linkage); `Extract` is const and thread-safe between Prepare calls.
class FeatureExtractor {
 public:
  /// `num_threads` bounds the parallel cache build in Prepare (0 = shared
  /// executor pool, 1 = serial); the cache contents are identical.
  FeatureExtractor(const Dataset* dataset, const AttrRoles* roles,
                   const schema::MediatedSchema* schema = nullptr,
                   const schema::ValueNormalizer* normalizer = nullptr,
                   size_t num_threads = 0);

  /// Extends the cache to records appended since the last Prepare call.
  void Prepare();

  /// Discards and rebuilds the whole cache (needed when roles or schema
  /// context changed retroactively).
  void Rebuild();

  /// Allocation-free hot path: all tokenization happened in Prepare (the
  /// per-pair kernels run over interned token ids), and `scratch` is the
  /// caller-owned per-worker working memory the kernels reuse. See
  /// DESIGN.md's scratch-buffer ownership rule — caller-owned scratch is
  /// the only convention; there is deliberately no thread_local fallback.
  PairFeatures Extract(RecordIdx a, RecordIdx b,
                       text::SimilarityScratch& scratch) const;

  /// Cheap elementwise upper bound on Extract(a, b): id_exact and
  /// name_jaccard are computed exactly (they are integer merges over the
  /// interned sets), name_similarity is bounded via the per-token
  /// signatures (SymmetricMongeElkanUpperBound), and the aligned-value
  /// features are bounded by 1 (0 when either side has no aligned values,
  /// since no key can be shared). Guaranteed >= the true features
  /// elementwise — the comparison cascade skips the expensive kernels
  /// whenever a scorer's bound over this result cannot reach its
  /// threshold. Runs in a fraction of Extract's cost: no dynamic
  /// programs, no string accesses, no numeric parsing.
  PairFeatures ExtractBounds(RecordIdx a, RecordIdx b,
                             text::SimilarityScratch& scratch) const;

  /// Distinct tokens interned across all record caches (diagnostics).
  size_t num_interned_tokens() const { return interner_.size(); }

 private:
  /// Interned, precomputed per-record evidence. Token vectors hold dense
  /// TokenInterner ids: set-likes are sorted by id (intersection sizes are
  /// order-invariant), name_words preserves WordTokens order and
  /// duplicates for Monge-Elkan.
  struct RecordCache {
    std::vector<text::TokenId> name_tokens;  ///< token set, sorted by id
    std::vector<text::TokenId> name_words;   ///< word sequence of name text
    std::vector<text::TokenId> id_tokens;    ///< identifier set, sorted by id
    /// True when id_tokens came from detected identifier fields (strong)
    /// rather than from mining the record text (weak).
    bool ids_from_role = false;
    /// (aligned key, normalized value); key is cluster id when a schema is
    /// present, else the AttrId; sorted by key.
    std::vector<std::pair<int, std::string>> aligned_values;
    /// Leading-double parse of each aligned value (parallel to
    /// aligned_values; NaN when the value is not numeric). Parsing is a
    /// per-record property, so doing it once here keeps the per-pair
    /// numeric-closeness merge free of string parsing — the merge feeds
    /// the parsed values to NumericSimilarityValues, which is the exact
    /// post-parse math of NumericSimilarity (and maps a NaN operand to
    /// 0.0, matching the string form's unparseable case).
    std::vector<double> aligned_numbers;
  };

  /// Tokenized-but-not-yet-interned form of one record's cache. Prepare
  /// builds these in parallel (pure per-record work), then interns them
  /// serially in record order — so ids are deterministic and the interner
  /// needs no synchronization during the concurrent Extract phase.
  struct StagedCache {
    std::vector<std::string> name_tokens;
    std::vector<std::string> name_words;
    std::vector<std::string> id_tokens;
    bool ids_from_role = false;
    std::vector<std::pair<int, std::string>> aligned_values;
    /// Parsed leading doubles, parallel to aligned_values (NaN when not
    /// numeric); built here so the parse runs in the parallel stage.
    std::vector<double> aligned_numbers;
  };

  StagedCache BuildStaged(RecordIdx idx) const;

  const Dataset* dataset_;
  const AttrRoles* roles_;
  const schema::MediatedSchema* schema_;
  const schema::ValueNormalizer* normalizer_;
  size_t num_threads_ = 0;
  text::TokenInterner interner_;
  std::vector<RecordCache> cache_;
  /// Per-token bound signatures, indexed by TokenId (grown alongside the
  /// interner in Prepare; read-only, hence lock-free, during Extract).
  std::vector<text::TokenSignature> signatures_;
};

/// Margin added to a prefilter score bound before comparing it against the
/// match threshold. The bounds are mathematically >= the true score but
/// run different floating-point operations, so a pair is only skipped when
/// bound + kPrefilterSlack < threshold — keeping the cascade's match set
/// bitwise identical to the unfiltered path.
inline constexpr double kPrefilterSlack = 1e-9;

/// Match decision interface over PairFeatures.
class PairScorer {
 public:
  virtual ~PairScorer() = default;
  /// Monotone match score in [0, 1].
  virtual double Score(const PairFeatures& features) const = 0;
  virtual bool Matches(const PairFeatures& features) const {
    return Score(features) >= threshold_;
  }

  /// Upper bound on Score(f) over every feature vector f with
  /// 0 <= f <= `bounds` elementwise (all features live in [0, 1]).
  /// Implementations must never under-bound — the matcher's comparison
  /// cascade skips the expensive kernels entirely when this bound cannot
  /// reach threshold(). The same bound is the progressive scheduler's
  /// ranking key (progressive.h): candidates are compared in
  /// bound-descending tiers, so a tighter bound both prunes more pairs
  /// and front-loads more of the matches under a comparison budget. The
  /// default declines to bound (returns 1.0), which disables
  /// prefiltering — and flattens the progressive ranking to candidate
  /// order — for scorers that do not implement it.
  virtual double ScoreUpperBound(const PairFeatures& bounds) const {
    (void)bounds;
    return 1.0;
  }

  virtual std::string name() const = 0;

  void set_threshold(double t) { threshold_ = t; }
  double threshold() const { return threshold_; }

 protected:
  double threshold_ = 0.5;
};

/// Fixed-weight linear combination of the features.
class LinearScorer : public PairScorer {
 public:
  LinearScorer();
  explicit LinearScorer(std::array<double, PairFeatures::kCount> weights);

  double Score(const PairFeatures& features) const override;
  /// Positive-weight part of the linear form at `bounds`: with
  /// non-negative features, w * f <= max(w, 0) * f_ub for every weight.
  double ScoreUpperBound(const PairFeatures& bounds) const override;
  std::string name() const override { return "linear"; }

 private:
  std::array<double, PairFeatures::kCount> weights_;
  /// Sum of weights_, fixed at construction — Score runs per candidate
  /// pair and must not re-reduce the weights every call.
  double total_weight_ = 0.0;
};

/// Domain rule exploiting identifiers: shared identifier => match;
/// otherwise require strong name similarity corroborated by value
/// agreement. Mirrors the tutorial's id-anchored product linkage.
/// Matching uses the inherited threshold() (0.5 by default) — callers ask
/// the scorer instead of re-hard-coding the cut.
class RuleScorer : public PairScorer {
 public:
  /// Defaults tuned for corpora where near-identical model numbers exist
  /// (the name test alone must be strict; identifiers carry the recall).
  RuleScorer(double name_threshold = 0.92, double value_threshold = 0.5);

  double Score(const PairFeatures& features) const override;
  /// Max over the rule branches reachable under `bounds`, each evaluated
  /// at the bound (every branch expression is monotone in the features,
  /// and a branch can only fire when its guards are satisfiable below the
  /// bound). Not simply Score(bounds): the rule cascade is not monotone
  /// in id_exact — a mined-id match pins the score at 0.95, below what
  /// the name branch can reach — so the max-over-branches form is what
  /// keeps the bound sound.
  double ScoreUpperBound(const PairFeatures& bounds) const override;
  std::string name() const override { return "rule"; }

 private:
  double name_threshold_;
  double value_threshold_;
};

/// Logistic-regression scorer trained from labeled pairs (stands in for the
/// active-learning / crowdsourced training loop).
class LearnedScorer : public PairScorer {
 public:
  LearnedScorer();

  /// SGD logistic regression; labels are 0/1.
  void Train(const std::vector<PairFeatures>& features,
             const std::vector<int>& labels, int epochs = 30,
             double learning_rate = 0.5);

  double Score(const PairFeatures& features) const override;
  /// Sigmoid of the positive-weight part of the logit: trained weights
  /// may be negative, and those terms only lower the score of a
  /// non-negative feature.
  double ScoreUpperBound(const PairFeatures& bounds) const override;
  std::string name() const override { return "learned"; }

  const std::array<double, PairFeatures::kCount>& weights() const {
    return weights_;
  }
  double bias() const { return bias_; }

 private:
  std::array<double, PairFeatures::kCount> weights_{};
  double bias_ = 0.0;
};

}  // namespace bdi::linkage

#endif  // BDI_LINKAGE_MATCHER_H_
