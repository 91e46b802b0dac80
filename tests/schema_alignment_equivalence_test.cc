// Schema alignment's bitwise contract: AttributeStatistics::Compute and
// BuildCandidateEdges give, at 1 and 4 threads, exactly what the serial
// string implementation they replaced gives — every profile field, the
// edge list (order, endpoints, score bits), and so the mediated schema
// and the normalizer built from them. That implementation lives here as
// the oracle: a whole-corpus scan into one accumulator per source
// attribute, and a per-pair scorer that tokenizes both names and merges
// the sample values as strings.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "bdi/common/string_util.h"
#include "bdi/schema/attribute_stats.h"
#include "bdi/schema/matchers.h"
#include "bdi/schema/mediated_schema.h"
#include "bdi/schema/units.h"
#include "bdi/schema/value_normalizer.h"
#include "bdi/synth/world.h"
#include "bdi/text/similarity.h"
#include "bdi/text/tokenizer.h"

namespace bdi::schema {
namespace {

// ---- Oracle: the serial string implementation ----

struct OracleStats {
  std::vector<AttrProfile> profiles;
  std::unordered_map<std::string, size_t> name_source_counts;
};

struct OracleAccumulator {
  std::string raw_name;
  size_t num_values = 0;
  std::set<std::string> distinct;
  size_t num_distinct_total = 0;
  std::set<std::string> all_seen;
  size_t numeric_count = 0;
  std::vector<double> numerics;
  std::map<std::string, size_t> unit_counts;
};

OracleStats OracleCompute(const Dataset& dataset) {
  std::unordered_map<SourceAttr, OracleAccumulator, SourceAttrHash> accs;
  for (const Record& record : dataset.records()) {
    for (const Field& field : record.fields) {
      SourceAttr sa{record.source, field.attr};
      OracleAccumulator& acc = accs[sa];
      if (acc.raw_name.empty()) {
        acc.raw_name = dataset.attr_name(field.attr);
      }
      ++acc.num_values;
      std::string lowered = ToLower(NormalizeWhitespace(field.value));
      if (acc.all_seen.size() < 4096) {
        if (acc.all_seen.insert(lowered).second) {
          ++acc.num_distinct_total;
        }
      }
      if (acc.distinct.size() < AttributeStatistics::kMaxSampleValues) {
        acc.distinct.insert(lowered);
      }
      double value = 0.0;
      std::string unit;
      if (ParseLeadingDouble(lowered, &value, &unit)) {
        ++acc.numeric_count;
        acc.numerics.push_back(value);
        ++acc.unit_counts[unit];
      }
    }
  }

  OracleStats stats;
  std::vector<SourceAttr> keys;
  for (const auto& [sa, acc] : accs) keys.push_back(sa);
  std::sort(keys.begin(), keys.end());
  std::unordered_map<std::string, std::set<SourceId>> name_sources;
  for (const SourceAttr& sa : keys) {
    OracleAccumulator& acc = accs[sa];
    AttrProfile profile;
    profile.id = sa;
    profile.raw_name = acc.raw_name;
    profile.normalized_name = NormalizeAlnum(acc.raw_name);
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
    name_sources[profile.normalized_name].insert(sa.source);
    stats.profiles.push_back(std::move(profile));
  }
  for (const auto& [name, sources] : name_sources) {
    stats.name_source_counts[name] = sources.size();
  }
  return stats;
}

double OracleNameSimilarity(const AttrProfile& a, const AttrProfile& b) {
  if (a.normalized_name.empty() || b.normalized_name.empty()) return 0.0;
  if (a.normalized_name == b.normalized_name) return 1.0;
  double jw =
      text::JaroWinklerSimilarity(a.normalized_name, b.normalized_name);
  std::vector<std::string> ta = text::TokenSet(a.raw_name);
  std::vector<std::string> tb = text::TokenSet(b.raw_name);
  double jac = text::JaccardSimilarity(ta, tb);
  double overlap = text::OverlapCoefficient(ta, tb);
  double score = std::max({jw, jac, 0.9 * overlap});
  return std::min(1.0, score);
}

double OracleValueSimilarity(const AttrProfile& a, const AttrProfile& b) {
  if (a.num_values == 0 || b.num_values == 0) return 0.0;
  bool na = a.IsNumeric(), nb = b.IsNumeric();
  if (na != nb) return 0.0;
  if (!na) {
    return text::JaccardSimilarity(a.sample_values, b.sample_values);
  }
  double median_a = a.numeric_median;
  double median_b = b.numeric_median;
  double stddev_b = b.numeric_stddev;
  double unit_discount = 1.0;
  if (median_b != 0.0) {
    double ratio = SnapScale(median_a / median_b);
    if (ratio != 1.0 && IsMeasurementUnitConversion(ratio)) {
      median_b *= ratio;
      stddev_b *= ratio;
      unit_discount = 0.9;
    }
  }
  double loc_denominator =
      std::max({std::abs(median_a), std::abs(median_b), 1e-9});
  double loc =
      1.0 - std::min(1.0, std::abs(median_a - median_b) / loc_denominator);
  double spread_denominator = std::max({a.numeric_stddev, stddev_b, 1e-9});
  double spread = 1.0 - std::min(1.0, std::abs(a.numeric_stddev - stddev_b) /
                                          spread_denominator);
  double jac = a.sample_values.empty() || b.sample_values.empty()
                   ? 0.0
                   : text::JaccardSimilarity(a.sample_values,
                                             b.sample_values);
  return std::max(jac, unit_discount * (0.7 * loc + 0.3 * spread));
}

double OracleCombinedSimilarity(const AttrProfile& a, const AttrProfile& b,
                                const AttrMatchConfig& config) {
  double total = config.name_weight + config.value_weight;
  if (total <= 0.0) return 0.0;
  return (config.name_weight * OracleNameSimilarity(a, b) +
          config.value_weight * OracleValueSimilarity(a, b)) /
         total;
}

std::vector<AttrEdge> OracleEdges(const std::vector<AttrProfile>& profiles,
                                  const AttrMatchConfig& config) {
  std::vector<AttrEdge> edges;
  for (size_t i = 0; i < profiles.size(); ++i) {
    for (size_t j = i + 1; j < profiles.size(); ++j) {
      if (profiles[i].id.source == profiles[j].id.source) continue;
      double score =
          OracleCombinedSimilarity(profiles[i], profiles[j], config);
      if (score >= config.min_score) edges.push_back(AttrEdge{i, j, score});
    }
  }
  return edges;
}

// ---- Comparison helpers ----

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

void ExpectSameProfile(const AttrProfile& expected, const AttrProfile& got) {
  EXPECT_EQ(expected.id, got.id);
  EXPECT_EQ(expected.raw_name, got.raw_name);
  EXPECT_EQ(expected.normalized_name, got.normalized_name);
  EXPECT_EQ(expected.num_values, got.num_values);
  EXPECT_EQ(expected.num_distinct, got.num_distinct);
  EXPECT_EQ(expected.sample_values, got.sample_values);
  EXPECT_EQ(Bits(expected.numeric_fraction), Bits(got.numeric_fraction));
  EXPECT_EQ(Bits(expected.numeric_mean), Bits(got.numeric_mean));
  EXPECT_EQ(Bits(expected.numeric_stddev), Bits(got.numeric_stddev));
  EXPECT_EQ(Bits(expected.numeric_median), Bits(got.numeric_median));
  EXPECT_EQ(expected.dominant_unit, got.dominant_unit);
}

void ExpectSameEdges(const std::vector<AttrEdge>& expected,
                     const std::vector<AttrEdge>& got) {
  ASSERT_EQ(expected.size(), got.size());
  for (size_t e = 0; e < expected.size(); ++e) {
    ASSERT_EQ(expected[e].a, got[e].a) << "edge " << e;
    ASSERT_EQ(expected[e].b, got[e].b) << "edge " << e;
    ASSERT_EQ(Bits(expected[e].score), Bits(got[e].score)) << "edge " << e;
  }
}

/// E5's heterogeneity levels over three seeds (seed 2013 is E5's own).
struct WorldCase {
  uint64_t seed;
  double synonym_prob;
  double decoration_prob;
};

const WorldCase kWorlds[] = {
    {7, 0.2, 0.1},    {7, 0.5, 0.4},    {7, 0.8, 0.1},
    {31, 0.2, 0.4},   {31, 0.5, 0.1},   {31, 0.8, 0.4},
    {2013, 0.2, 0.1}, {2013, 0.5, 0.4}, {2013, 0.8, 0.4},
};

constexpr size_t kThreadCounts[] = {1, 4};

synth::SyntheticWorld MakeWorld(const WorldCase& world_case) {
  synth::WorldConfig config;
  config.seed = world_case.seed;
  config.category = "camera";
  config.num_entities = 250;
  config.num_sources = 12;
  config.synonym_prob = world_case.synonym_prob;
  config.decoration_prob = world_case.decoration_prob;
  return synth::GenerateWorld(config);
}

std::string Label(const WorldCase& world_case, size_t threads) {
  return "seed " + std::to_string(world_case.seed) + ", synonyms " +
         FormatDouble(world_case.synonym_prob, 1) + ", decoration " +
         FormatDouble(world_case.decoration_prob, 1) + ", threads " +
         std::to_string(threads);
}

TEST(SchemaStatsParallelEquivalenceTest, ProfilesMatchOracle) {
  for (const WorldCase& world_case : kWorlds) {
    synth::SyntheticWorld world = MakeWorld(world_case);
    OracleStats oracle = OracleCompute(world.dataset);
    for (size_t threads : kThreadCounts) {
      SCOPED_TRACE(Label(world_case, threads));
      AttributeStatistics stats =
          AttributeStatistics::Compute(world.dataset, threads);
      ASSERT_EQ(oracle.profiles.size(), stats.profiles().size());
      for (size_t p = 0; p < oracle.profiles.size(); ++p) {
        SCOPED_TRACE("profile " + std::to_string(p));
        ExpectSameProfile(oracle.profiles[p], stats.profiles()[p]);
        ASSERT_EQ(stats.Find(oracle.profiles[p].id), &stats.profiles()[p]);
      }
      EXPECT_EQ(oracle.name_source_counts, stats.name_source_counts());
    }
  }
}

TEST(SchemaEdgesParallelEquivalenceTest, EdgesMatchOracle) {
  for (const WorldCase& world_case : kWorlds) {
    synth::SyntheticWorld world = MakeWorld(world_case);
    AttributeStatistics stats = AttributeStatistics::Compute(world.dataset, 1);
    for (AttrMatchConfig config : {AttrMatchConfig{}, AttrMatchConfig{1.0, 0.0, 0.5}}) {
      std::vector<AttrEdge> oracle = OracleEdges(stats.profiles(), config);
      ASSERT_FALSE(oracle.empty());
      for (size_t threads : kThreadCounts) {
        SCOPED_TRACE(Label(world_case, threads));
        ExpectSameEdges(oracle,
                        BuildCandidateEdges(stats, config, threads));
      }
    }
  }
}

TEST(SchemaEdgesParallelEquivalenceTest, PairScoresMatchOracle) {
  synth::SyntheticWorld world = MakeWorld(kWorlds[8]);
  AttributeStatistics stats = AttributeStatistics::Compute(world.dataset);
  const std::vector<AttrProfile>& profiles = stats.profiles();
  AttrMatchConfig config;
  for (size_t threads : kThreadCounts) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    AttrMatcher matcher(profiles, threads);
    // Every ordered pair, same-source pairs and self pairs included.
    for (size_t i = 0; i < profiles.size(); ++i) {
      for (size_t j = 0; j < profiles.size(); ++j) {
        const AttrProfile& a = profiles[i];
        const AttrProfile& b = profiles[j];
        ASSERT_EQ(Bits(OracleNameSimilarity(a, b)),
                  Bits(matcher.NameSimilarity(i, j)))
            << i << "," << j;
        ASSERT_EQ(Bits(OracleValueSimilarity(a, b)),
                  Bits(matcher.ValueSimilarity(i, j)))
            << i << "," << j;
        ASSERT_EQ(Bits(OracleCombinedSimilarity(a, b, config)),
                  Bits(matcher.CombinedSimilarity(i, j, config)))
            << i << "," << j;
      }
    }
  }
}

TEST(SchemaEdgesParallelEquivalenceTest, EmptySetRulesMatchOracle) {
  auto make = [](SourceId source, AttrId attr, std::string raw,
                 std::string normalized, std::vector<std::string> values,
                 size_t num_values, double numeric_fraction) {
    AttrProfile profile;
    profile.id = SourceAttr{source, attr};
    profile.raw_name = std::move(raw);
    profile.normalized_name = std::move(normalized);
    profile.sample_values = std::move(values);
    profile.num_values = num_values;
    profile.numeric_fraction = numeric_fraction;
    profile.numeric_median = 10.0 * (attr + 1);
    profile.numeric_stddev = 1.0 + attr;
    return profile;
  };
  std::vector<AttrProfile> profiles = {
      make(0, 0, "Weight", "weight", {"1 kg", "2 kg"}, 2, 1.0),
      make(1, 1, "weight", "weight", {"2 kg"}, 1, 1.0),
      make(1, 2, "item weight", "itemweight", {}, 3, 1.0),
      make(2, 3, "", "", {"red"}, 1, 0.0),
      make(2, 4, "%%", "x", {}, 4, 0.0),
      make(3, 5, "colour", "colour", {}, 2, 0.0),
      make(3, 6, "color", "color", {"red", "red", "blue"}, 3, 0.0),
      make(4, 7, "color", "color", {"blue", "red"}, 0, 0.0),
      make(4, 8, "height", "height", {}, 5, 1.0),
  };
  for (AttrMatchConfig config :
       {AttrMatchConfig{}, AttrMatchConfig{0.0, 0.0, 0.0}}) {
    AttrMatcher matcher(profiles, 1);
    for (size_t i = 0; i < profiles.size(); ++i) {
      for (size_t j = 0; j < profiles.size(); ++j) {
        EXPECT_EQ(Bits(OracleNameSimilarity(profiles[i], profiles[j])),
                  Bits(matcher.NameSimilarity(i, j)))
            << i << "," << j;
        EXPECT_EQ(Bits(OracleValueSimilarity(profiles[i], profiles[j])),
                  Bits(matcher.ValueSimilarity(i, j)))
            << i << "," << j;
        EXPECT_EQ(Bits(OracleCombinedSimilarity(profiles[i], profiles[j],
                                                config)),
                  Bits(matcher.CombinedSimilarity(i, j, config)))
            << i << "," << j;
      }
    }
  }
}

TEST(SchemaEdgesParallelEquivalenceTest, MediatedSchemaAndNormalizerMatch) {
  for (const WorldCase& world_case : kWorlds) {
    synth::SyntheticWorld world = MakeWorld(world_case);
    AttributeStatistics stats = AttributeStatistics::Compute(world.dataset, 1);
    std::vector<AttrEdge> oracle_edges = OracleEdges(stats.profiles(), {});
    for (size_t threads : kThreadCounts) {
      SCOPED_TRACE(Label(world_case, threads));
      AttributeStatistics parallel_stats =
          AttributeStatistics::Compute(world.dataset, threads);
      std::vector<AttrEdge> edges =
          BuildCandidateEdges(parallel_stats, {}, threads);
      for (ClusterMethod method :
           {ClusterMethod::kCenter, ClusterMethod::kConnectedComponents}) {
        MediatedSchemaConfig config;
        config.method = method;
        MediatedSchema expected =
            BuildMediatedSchema(stats, oracle_edges, config);
        MediatedSchema got = BuildMediatedSchema(parallel_stats, edges, config);
        EXPECT_EQ(expected.clusters.size(), got.clusters.size());
        for (size_t c = 0;
             c < std::min(expected.clusters.size(), got.clusters.size());
             ++c) {
          EXPECT_TRUE(expected.clusters[c] == got.clusters[c])
              << "cluster " << c;
        }
        EXPECT_EQ(expected.cluster_names, got.cluster_names);
        EXPECT_TRUE(expected.cluster_of == got.cluster_of);

        ValueNormalizer expected_normalizer =
            ValueNormalizer::Fit(stats, expected);
        ValueNormalizer normalizer = ValueNormalizer::Fit(parallel_stats, got);
        for (const AttrProfile& profile : stats.profiles()) {
          EXPECT_EQ(Bits(expected_normalizer.ScaleOf(profile.id)),
                    Bits(normalizer.ScaleOf(profile.id)));
          EXPECT_EQ(expected_normalizer.IsNumeric(profile.id),
                    normalizer.IsNumeric(profile.id));
        }
      }
    }
  }
}

}  // namespace
}  // namespace bdi::schema
