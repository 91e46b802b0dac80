#ifndef BDI_SCHEMA_MATCHERS_H_
#define BDI_SCHEMA_MATCHERS_H_

#include <cstdint>
#include <vector>

#include "bdi/schema/attribute_stats.h"

namespace bdi::schema {

/// Weights for the combined attribute-correspondence score.
struct AttrMatchConfig {
  double name_weight = 0.7;
  double value_weight = 0.3;
  /// Pairs scoring below this are not materialized as candidate edges.
  double min_score = 0.15;
};

/// Scores the profiles of one list against each other; pairs are named by
/// their indices into the list. Construction does the string work once:
/// it scores every ordered pair of distinct attribute names into a table
/// (name similarity depends on the two names only), and it gives every
/// sample value an id from one dictionary, so value overlap is an integer
/// merge. Borrows `profiles`, which must outlive the matcher.
class AttrMatcher {
 public:
  /// `max_parallelism` caps the workers that fill the name table (0 = the
  /// shared pool, 1 = inline serial); the table is the same either way.
  explicit AttrMatcher(const std::vector<AttrProfile>& profiles,
                       size_t max_parallelism = 0);
  /// A temporary list would leave the matcher dangling.
  AttrMatcher(std::vector<AttrProfile>&&, size_t = 0) = delete;

  /// Name-based similarity of profiles a and b: the max of Jaro-Winkler on
  /// normalized names and Jaccard on name word-tokens, with a containment
  /// bonus ("weight" vs "item weight").
  double NameSimilarity(size_t a, size_t b) const {
    return name_scores_[name_id_[a] * num_names_ + name_id_[b]];
  }

  /// Instance-based similarity: Jaccard of sampled value sets for
  /// string-typed attributes; numeric-distribution proximity (median/spread
  /// agreement) for numeric attributes; 0 across types.
  double ValueSimilarity(size_t a, size_t b) const;

  /// config.name_weight * NameSimilarity + config.value_weight *
  /// ValueSimilarity, normalized by total weight.
  double CombinedSimilarity(size_t a, size_t b,
                            const AttrMatchConfig& config) const;

 private:
  const std::vector<AttrProfile>& profiles_;
  /// Profile index -> id of its distinct (raw, normalized) name.
  std::vector<uint32_t> name_id_;
  size_t num_names_ = 0;
  /// NameSimilarity of name ids (x, y) at [x * num_names_ + y].
  std::vector<double> name_scores_;
  /// Per profile, its sample values as dictionary ids, sorted.
  std::vector<std::vector<uint32_t>> value_ids_;
};

/// A scored candidate correspondence between two source attributes
/// (indices into AttributeStatistics::profiles()).
struct AttrEdge {
  size_t a = 0;
  size_t b = 0;
  double score = 0.0;
};

/// Scores all cross-source profile pairs with an AttrMatcher and keeps
/// those >= min_score, in (a, b) order. Same-source pairs are never
/// candidates (a source does not publish the same semantics twice). Rows
/// are scored in parallel (`max_parallelism` as for ParallelFor); the
/// edges are the same at every thread count.
std::vector<AttrEdge> BuildCandidateEdges(const AttributeStatistics& stats,
                                          const AttrMatchConfig& config,
                                          size_t max_parallelism = 0);

}  // namespace bdi::schema

#endif  // BDI_SCHEMA_MATCHERS_H_
