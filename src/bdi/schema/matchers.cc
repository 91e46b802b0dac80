#include "bdi/schema/matchers.h"

#include <algorithm>
#include <cmath>
#include <string_view>
#include <unordered_map>

#include "bdi/common/executor.h"
#include "bdi/schema/units.h"
#include "bdi/text/similarity.h"
#include "bdi/text/tokenizer.h"

namespace bdi::schema {

namespace {

/// One distinct attribute name, prepared once for the name table.
struct NameForm {
  const std::string* normalized = nullptr;
  std::vector<std::string> tokens;  ///< TokenSet of the raw name
};

double ScoreNames(const NameForm& a, const NameForm& b,
                  text::SimilarityScratch& scratch) {
  if (a.normalized->empty() || b.normalized->empty()) return 0.0;
  if (*a.normalized == *b.normalized) return 1.0;
  double jw = text::JaroWinklerSimilarity(*a.normalized, *b.normalized,
                                          scratch);
  double jac = text::JaccardSimilarity(a.tokens, b.tokens);
  // Containment bonus: decorated names ("item weight") contain the plain
  // name's tokens entirely.
  double overlap = text::OverlapCoefficient(a.tokens, b.tokens);
  double score = std::max({jw, jac, 0.9 * overlap});
  return std::min(1.0, score);
}

}  // namespace

AttrMatcher::AttrMatcher(const std::vector<AttrProfile>& profiles,
                         size_t max_parallelism)
    : profiles_(profiles) {
  // Distinct names, keyed by raw + '\0' + normalized, numbered in first
  // appearance order.
  std::unordered_map<std::string, uint32_t> name_ids;
  std::vector<NameForm> names;
  name_id_.reserve(profiles.size());
  std::string key;
  for (const AttrProfile& profile : profiles) {
    key = profile.raw_name;
    key += '\0';
    key += profile.normalized_name;
    auto [it, fresh] =
        name_ids.try_emplace(key, static_cast<uint32_t>(names.size()));
    if (fresh) {
      names.push_back(NameForm{&profile.normalized_name,
                               text::TokenSet(profile.raw_name)});
    }
    name_id_.push_back(it->second);
  }
  num_names_ = names.size();
  name_scores_.resize(num_names_ * num_names_);
  ParallelFor(
      num_names_,
      [&](size_t x) {
        text::SimilarityScratch scratch;
        for (size_t y = 0; y < num_names_; ++y) {
          name_scores_[x * num_names_ + y] =
              ScoreNames(names[x], names[y], scratch);
        }
      },
      max_parallelism);

  // One dictionary over every sample value. Duplicates within a profile
  // keep their multiplicity, so the merge counts exactly what the sorted
  // string merge counted.
  std::unordered_map<std::string_view, uint32_t> value_dictionary;
  value_ids_.resize(profiles.size());
  for (size_t p = 0; p < profiles.size(); ++p) {
    std::vector<uint32_t>& ids = value_ids_[p];
    ids.reserve(profiles[p].sample_values.size());
    for (const std::string& value : profiles[p].sample_values) {
      ids.push_back(
          value_dictionary
              .try_emplace(value,
                           static_cast<uint32_t>(value_dictionary.size()))
              .first->second);
    }
    std::sort(ids.begin(), ids.end());
  }
}

double AttrMatcher::ValueSimilarity(size_t ia, size_t ib) const {
  const AttrProfile& a = profiles_[ia];
  const AttrProfile& b = profiles_[ib];
  if (a.num_values == 0 || b.num_values == 0) return 0.0;
  bool na = a.IsNumeric(), nb = b.IsNumeric();
  if (na != nb) return 0.0;
  const std::vector<uint32_t>& va = value_ids_[ia];
  const std::vector<uint32_t>& vb = value_ids_[ib];
  if (!na) return text::JaccardSimilarityIds(va, vb);
  // Numeric: compare location and spread on a relative scale. When the
  // median ratio snaps to a known unit-conversion constant (cm vs inch,
  // g vs oz), rescale one side first — same semantics, different units.
  double median_a = a.numeric_median;
  double median_b = b.numeric_median;
  double stddev_b = b.numeric_stddev;
  double unit_discount = 1.0;
  if (median_b != 0.0) {
    double ratio = SnapScale(median_a / median_b);
    if (ratio != 1.0 && IsMeasurementUnitConversion(ratio)) {
      median_b *= ratio;
      stddev_b *= ratio;
      unit_discount = 0.9;  // converted agreement is slightly weaker
    }
  }
  double loc_denominator =
      std::max({std::abs(median_a), std::abs(median_b), 1e-9});
  double loc =
      1.0 - std::min(1.0, std::abs(median_a - median_b) / loc_denominator);
  double spread_denominator = std::max({a.numeric_stddev, stddev_b, 1e-9});
  double spread = 1.0 - std::min(1.0, std::abs(a.numeric_stddev - stddev_b) /
                                          spread_denominator);
  // Exact value overlap still counts when scales agree (both-empty sample
  // sets are no evidence, not perfect agreement).
  double jac = va.empty() || vb.empty() ? 0.0
                                        : text::JaccardSimilarityIds(va, vb);
  return std::max(jac, unit_discount * (0.7 * loc + 0.3 * spread));
}

double AttrMatcher::CombinedSimilarity(size_t a, size_t b,
                                       const AttrMatchConfig& config) const {
  double total = config.name_weight + config.value_weight;
  if (total <= 0.0) return 0.0;
  return (config.name_weight * NameSimilarity(a, b) +
          config.value_weight * ValueSimilarity(a, b)) /
         total;
}

std::vector<AttrEdge> BuildCandidateEdges(const AttributeStatistics& stats,
                                          const AttrMatchConfig& config,
                                          size_t max_parallelism) {
  const std::vector<AttrProfile>& profiles = stats.profiles();
  AttrMatcher matcher(profiles, max_parallelism);
  // One edge list per row i, concatenated in row order: the serial loop's
  // edge order at any thread count.
  std::vector<std::vector<AttrEdge>> rows(profiles.size());
  ParallelFor(
      profiles.size(),
      [&](size_t i) {
        for (size_t j = i + 1; j < profiles.size(); ++j) {
          if (profiles[i].id.source == profiles[j].id.source) continue;
          double score = matcher.CombinedSimilarity(i, j, config);
          if (score >= config.min_score) {
            rows[i].push_back(AttrEdge{i, j, score});
          }
        }
      },
      max_parallelism);
  size_t total = 0;
  for (const std::vector<AttrEdge>& row : rows) total += row.size();
  std::vector<AttrEdge> edges;
  edges.reserve(total);
  for (const std::vector<AttrEdge>& row : rows) {
    edges.insert(edges.end(), row.begin(), row.end());
  }
  return edges;
}

}  // namespace bdi::schema
