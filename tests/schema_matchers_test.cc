#include "bdi/schema/matchers.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "bdi/schema/units.h"

namespace bdi::schema {
namespace {

AttrProfile MakeProfile(SourceId source, AttrId attr, std::string name,
                        std::vector<std::string> values) {
  AttrProfile profile;
  profile.id = SourceAttr{source, attr};
  profile.raw_name = name;
  profile.normalized_name = name;  // tests use pre-normalized names
  profile.sample_values = std::move(values);
  std::sort(profile.sample_values.begin(), profile.sample_values.end());
  profile.num_values = profile.sample_values.size();
  profile.num_distinct = profile.sample_values.size();
  return profile;
}

AttrProfile MakeNumericProfile(SourceId source, AttrId attr,
                               std::string name, double median,
                               double stddev) {
  AttrProfile profile;
  profile.id = SourceAttr{source, attr};
  profile.raw_name = name;
  profile.normalized_name = name;
  profile.num_values = 100;
  profile.num_distinct = 100;
  profile.numeric_fraction = 1.0;
  profile.numeric_median = median;
  profile.numeric_mean = median;
  profile.numeric_stddev = stddev;
  return profile;
}

double Name(const AttrProfile& a, const AttrProfile& b) {
  std::vector<AttrProfile> profiles = {a, b};
  return AttrMatcher(profiles).NameSimilarity(0, 1);
}

double Value(const AttrProfile& a, const AttrProfile& b) {
  std::vector<AttrProfile> profiles = {a, b};
  return AttrMatcher(profiles).ValueSimilarity(0, 1);
}

double Combined(const AttrProfile& a, const AttrProfile& b,
                const AttrMatchConfig& config) {
  std::vector<AttrProfile> profiles = {a, b};
  return AttrMatcher(profiles).CombinedSimilarity(0, 1, config);
}

TEST(NameSimilarityTest, IdenticalNormalizedNames) {
  AttrProfile a = MakeProfile(0, 0, "weight", {"1"});
  AttrProfile b = MakeProfile(1, 1, "weight", {"2"});
  EXPECT_DOUBLE_EQ(Name(a, b), 1.0);
}

TEST(NameSimilarityTest, ContainmentBonus) {
  AttrProfile a = MakeProfile(0, 0, "weight", {"1"});
  AttrProfile b = MakeProfile(1, 1, "item weight", {"2"});
  b.raw_name = "item weight";
  EXPECT_GE(Name(a, b), 0.85);
}

TEST(NameSimilarityTest, UnrelatedNamesLow) {
  AttrProfile a = MakeProfile(0, 0, "color", {"1"});
  AttrProfile b = MakeProfile(1, 1, "impedance", {"2"});
  EXPECT_LT(Name(a, b), 0.6);
}

TEST(ValueSimilarityTest, CategoricalOverlap) {
  AttrProfile a = MakeProfile(0, 0, "c1", {"red", "blue", "green"});
  AttrProfile b = MakeProfile(1, 1, "c2", {"red", "blue", "yellow"});
  EXPECT_DOUBLE_EQ(Value(a, b), 0.5);  // 2 / 4
}

TEST(ValueSimilarityTest, TypeMismatchIsZero) {
  AttrProfile a = MakeProfile(0, 0, "c", {"red", "blue"});
  AttrProfile b = MakeNumericProfile(1, 1, "n", 10.0, 2.0);
  EXPECT_DOUBLE_EQ(Value(a, b), 0.0);
  EXPECT_DOUBLE_EQ(Value(b, a), 0.0);
}

TEST(ValueSimilarityTest, NumericSameDistributionHigh) {
  AttrProfile a = MakeNumericProfile(0, 0, "x", 100.0, 20.0);
  AttrProfile b = MakeNumericProfile(1, 1, "y", 102.0, 21.0);
  EXPECT_GT(Value(a, b), 0.85);
}

TEST(ValueSimilarityTest, NumericFarDistributionsLow) {
  AttrProfile a = MakeNumericProfile(0, 0, "x", 5.0, 1.0);
  AttrProfile b = MakeNumericProfile(1, 1, "y", 5000.0, 900.0);
  EXPECT_LT(Value(a, b), 0.3);
}

TEST(ValueSimilarityTest, UnitConvertedDistributionsRecognized) {
  // Same attribute in grams vs ounces (factor 28.35).
  AttrProfile grams = MakeNumericProfile(0, 0, "w", 800.0, 300.0);
  AttrProfile ounces = MakeNumericProfile(1, 1, "w2", 800.0 / 28.35,
                                          300.0 / 28.35);
  EXPECT_GT(Value(grams, ounces), 0.7);
}

TEST(ValueSimilarityTest, PowerOfTenRatioNotTreatedAsUnits) {
  // Ratio 10 between unrelated attributes must NOT be auto-converted.
  AttrProfile a = MakeNumericProfile(0, 0, "x", 3.0, 0.5);
  AttrProfile b = MakeNumericProfile(1, 1, "y", 30.0, 5.0);
  EXPECT_LT(Value(a, b), 0.5);
}

TEST(ValueSimilarityTest, EmptyProfilesZero) {
  AttrProfile a = MakeProfile(0, 0, "x", {});
  a.num_values = 0;
  AttrProfile b = MakeProfile(1, 1, "y", {"v"});
  EXPECT_DOUBLE_EQ(Value(a, b), 0.0);
}

TEST(CombinedSimilarityTest, WeightsNormalize) {
  AttrProfile a = MakeProfile(0, 0, "weight", {"red"});
  AttrProfile b = MakeProfile(1, 1, "weight", {"red"});
  AttrMatchConfig config;
  config.name_weight = 2.0;
  config.value_weight = 2.0;
  EXPECT_DOUBLE_EQ(Combined(a, b, config), 1.0);
  config.name_weight = 0.0;
  config.value_weight = 0.0;
  EXPECT_DOUBLE_EQ(Combined(a, b, config), 0.0);
}

TEST(BuildCandidateEdgesTest, SkipsSameSourceAndLowScores) {
  Dataset dataset;
  SourceId s0 = dataset.AddSource("s0");
  SourceId s1 = dataset.AddSource("s1");
  dataset.AddRecord(s0, {{"color", "red"}, {"colour", "red"}});
  dataset.AddRecord(s1, {{"color", "red"}});
  AttributeStatistics stats = AttributeStatistics::Compute(dataset);
  AttrMatchConfig config;
  config.min_score = 0.3;
  std::vector<AttrEdge> edges = BuildCandidateEdges(stats, config);
  for (const AttrEdge& edge : edges) {
    EXPECT_NE(stats.profiles()[edge.a].id.source,
              stats.profiles()[edge.b].id.source);
    EXPECT_GE(edge.score, config.min_score);
  }
  // color(s0) - color(s1) must be a candidate.
  EXPECT_FALSE(edges.empty());
}

TEST(UnitsTest, SnapScaleIdentity) {
  EXPECT_DOUBLE_EQ(SnapScale(1.02), 1.0);
  EXPECT_DOUBLE_EQ(SnapScale(0.0), 1.0);
  EXPECT_DOUBLE_EQ(SnapScale(-3.0), 1.0);
}

TEST(UnitsTest, SnapScaleKnownFactors) {
  EXPECT_DOUBLE_EQ(SnapScale(2.5), 2.54);
  EXPECT_DOUBLE_EQ(SnapScale(28.0), 28.35);
  EXPECT_NEAR(SnapScale(1.0 / 28.4), 1.0 / 28.35, 1e-9);
  // Far from any constant: returned unchanged.
  EXPECT_DOUBLE_EQ(SnapScale(5.5), 5.5);
}

TEST(UnitsTest, SnapScalePicksClosest) {
  // 0.35 is between 0.3048 (ft->m) and 0.3937 (cm->in); with a loose
  // tolerance the closer constant must win.
  double snapped = SnapScale(0.32, 0.25);
  EXPECT_DOUBLE_EQ(snapped, 0.3048);
}

TEST(UnitsTest, ConversionPredicates) {
  EXPECT_TRUE(IsKnownUnitConversion(2.54));
  EXPECT_TRUE(IsKnownUnitConversion(10.0));
  EXPECT_TRUE(IsMeasurementUnitConversion(2.54));
  EXPECT_FALSE(IsMeasurementUnitConversion(10.0));
  EXPECT_FALSE(IsMeasurementUnitConversion(1.0));
  EXPECT_FALSE(IsKnownUnitConversion(-1.0));
}

}  // namespace
}  // namespace bdi::schema
