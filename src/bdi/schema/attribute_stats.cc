#include "bdi/schema/attribute_stats.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <map>
#include <set>
#include <unordered_set>

#include "bdi/common/executor.h"
#include "bdi/common/string_util.h"

namespace bdi::schema {

namespace {

/// Distinct values counted per source attribute before the count caps.
constexpr size_t kMaxDistinctCount = 4096;

struct Accumulator {
  AttrId attr = kInvalidAttr;
  size_t num_values = 0;
  std::set<std::string> distinct;          // capped sample of lowercased
  size_t num_distinct_total = 0;
  std::unordered_set<std::string> all_seen;  // for distinct counting (capped)
  size_t numeric_count = 0;
  std::vector<double> numerics;
  std::map<std::string, size_t> unit_counts;
};

/// ToLower(NormalizeWhitespace(value)), written into `out`'s buffer.
void LowerNormalized(std::string_view value, std::string* out) {
  out->clear();
  bool in_space = false;
  for (char c : Trim(value)) {
    unsigned char uc = static_cast<unsigned char>(c);
    if (std::isspace(uc) != 0) {
      in_space = true;
      continue;
    }
    if (in_space && !out->empty()) out->push_back(' ');
    in_space = false;
    out->push_back(static_cast<char>(std::tolower(uc)));
  }
}

AttrProfile BuildProfile(const Dataset& dataset, SourceId source,
                         Accumulator& acc) {
  AttrProfile profile;
  profile.id = SourceAttr{source, acc.attr};
  profile.raw_name = dataset.attr_name(acc.attr);
  profile.normalized_name = NormalizeAlnum(profile.raw_name);
  profile.num_values = acc.num_values;
  profile.num_distinct = acc.num_distinct_total;
  profile.sample_values.assign(acc.distinct.begin(), acc.distinct.end());
  profile.numeric_fraction =
      acc.num_values == 0 ? 0.0
                          : static_cast<double>(acc.numeric_count) /
                                static_cast<double>(acc.num_values);
  if (!acc.numerics.empty()) {
    double sum = 0.0;
    for (double v : acc.numerics) sum += v;
    profile.numeric_mean = sum / static_cast<double>(acc.numerics.size());
    double var = 0.0;
    for (double v : acc.numerics) {
      var += (v - profile.numeric_mean) * (v - profile.numeric_mean);
    }
    profile.numeric_stddev =
        std::sqrt(var / static_cast<double>(acc.numerics.size()));
    std::nth_element(acc.numerics.begin(),
                     acc.numerics.begin() + acc.numerics.size() / 2,
                     acc.numerics.end());
    profile.numeric_median = acc.numerics[acc.numerics.size() / 2];
    size_t best = 0;
    for (const auto& [unit, count] : acc.unit_counts) {
      if (count > best) {
        best = count;
        profile.dominant_unit = unit;
      }
    }
  }
  return profile;
}

/// The profiles of one source's attributes, sorted by attribute id. A
/// source attribute belongs to one source, so visiting the source's
/// records in dataset order feeds each accumulator its values in the
/// order a whole-corpus scan would.
std::vector<AttrProfile> ProfileSource(const Dataset& dataset,
                                       const SourceInfo& source) {
  std::unordered_map<AttrId, Accumulator> accs;
  std::string lowered;
  std::string unit;
  for (RecordIdx idx : source.records) {
    for (const Field& field : dataset.record(idx).fields) {
      Accumulator& acc = accs[field.attr];
      acc.attr = field.attr;
      ++acc.num_values;
      LowerNormalized(field.value, &lowered);
      // Only a first sighting can grow the sample: a repeat was offered
      // to it already, and once all_seen caps, the sample (a subset of at
      // most kMaxSampleValues) is full.
      if (acc.all_seen.size() < kMaxDistinctCount &&
          acc.all_seen.insert(lowered).second) {
        ++acc.num_distinct_total;
        if (acc.distinct.size() < AttributeStatistics::kMaxSampleValues) {
          acc.distinct.insert(lowered);
        }
      }
      double value = 0.0;
      if (ParseLeadingDouble(lowered, &value, &unit)) {
        ++acc.numeric_count;
        acc.numerics.push_back(value);
        ++acc.unit_counts[unit];
      }
    }
  }
  std::vector<Accumulator*> order;
  order.reserve(accs.size());
  for (auto& [attr, acc] : accs) order.push_back(&acc);
  std::sort(order.begin(), order.end(),
            [](const Accumulator* a, const Accumulator* b) {
              return a->attr < b->attr;
            });
  std::vector<AttrProfile> profiles;
  profiles.reserve(order.size());
  for (Accumulator* acc : order) {
    profiles.push_back(BuildProfile(dataset, source.id, *acc));
  }
  return profiles;
}

}  // namespace

AttributeStatistics AttributeStatistics::Compute(const Dataset& dataset,
                                                 size_t max_parallelism) {
  const std::vector<SourceInfo>& sources = dataset.sources();
  std::vector<std::vector<AttrProfile>> per_source(sources.size());
  ParallelFor(
      sources.size(),
      [&](size_t s) { per_source[s] = ProfileSource(dataset, sources[s]); },
      max_parallelism);

  // Sources in id order, attributes sorted within each: the sorted
  // SourceAttr order.
  AttributeStatistics stats;
  size_t num_profiles = 0;
  for (const std::vector<AttrProfile>& profiles : per_source) {
    num_profiles += profiles.size();
  }
  stats.profiles_.reserve(num_profiles);
  std::unordered_map<std::string, std::set<SourceId>> name_sources;
  for (std::vector<AttrProfile>& profiles : per_source) {
    for (AttrProfile& profile : profiles) {
      name_sources[profile.normalized_name].insert(profile.id.source);
      stats.index_[profile.id] = stats.profiles_.size();
      stats.profiles_.push_back(std::move(profile));
    }
  }
  for (const auto& [name, sources_of_name] : name_sources) {
    stats.name_source_counts_[name] = sources_of_name.size();
  }
  return stats;
}

const AttrProfile* AttributeStatistics::Find(const SourceAttr& sa) const {
  auto it = index_.find(sa);
  if (it == index_.end()) return nullptr;
  return &profiles_[it->second];
}

}  // namespace bdi::schema
