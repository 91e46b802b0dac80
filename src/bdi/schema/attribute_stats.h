#ifndef BDI_SCHEMA_ATTRIBUTE_STATS_H_
#define BDI_SCHEMA_ATTRIBUTE_STATS_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "bdi/model/dataset.h"
#include "bdi/model/types.h"

namespace bdi::schema {

/// Per-(source, attribute) profile: everything the alignment matchers need,
/// computed in one pass over the corpus.
struct AttrProfile {
  SourceAttr id;
  std::string raw_name;
  std::string normalized_name;  ///< lowercased alphanumeric form

  size_t num_values = 0;         ///< records of the source carrying the attr
  size_t num_distinct = 0;

  /// Up to `kMaxSampleValues` distinct lowercased values, sorted.
  std::vector<std::string> sample_values;

  /// Fraction of values with a parseable leading number.
  double numeric_fraction = 0.0;
  /// Statistics over the parsed numeric prefixes (valid when
  /// numeric_fraction > 0).
  double numeric_mean = 0.0;
  double numeric_stddev = 0.0;
  double numeric_median = 0.0;
  /// Most frequent non-numeric suffix among numeric values ("cm"), possibly
  /// empty.
  std::string dominant_unit;

  bool IsNumeric() const { return numeric_fraction >= 0.5; }
};

/// Corpus-wide attribute statistics: one profile per SourceAttr plus the
/// attribute-name frequency table used for the variety characterization
/// (E1: the long tail of attribute names).
class AttributeStatistics {
 public:
  static constexpr size_t kMaxSampleValues = 64;

  /// Scans the dataset once and builds all profiles. Sources are profiled
  /// in parallel (`max_parallelism` as for ParallelFor: 0 = the shared
  /// pool, 1 = inline serial); the statistics are the same either way.
  static AttributeStatistics Compute(const Dataset& dataset,
                                     size_t max_parallelism = 0);

  const std::vector<AttrProfile>& profiles() const { return profiles_; }

  /// Profile lookup; returns nullptr if the SourceAttr never appears.
  const AttrProfile* Find(const SourceAttr& sa) const;

  /// Number of distinct sources using each normalized attribute name.
  const std::unordered_map<std::string, size_t>& name_source_counts() const {
    return name_source_counts_;
  }

 private:
  std::vector<AttrProfile> profiles_;
  std::unordered_map<SourceAttr, size_t, SourceAttrHash> index_;
  std::unordered_map<std::string, size_t> name_source_counts_;
};

}  // namespace bdi::schema

#endif  // BDI_SCHEMA_ATTRIBUTE_STATS_H_
