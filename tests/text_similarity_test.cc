#include "bdi/text/similarity.h"

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "bdi/text/tokenizer.h"

namespace bdi::text {
namespace {

TEST(JaroTest, KnownBehaviour) {
  EXPECT_DOUBLE_EQ(JaroSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("a", ""), 0.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", "abc"), 1.0);
  EXPECT_NEAR(JaroSimilarity("martha", "marhta"), 0.9444, 1e-3);
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", "xyz"), 0.0);
}

TEST(JaroWinklerTest, PrefixBoost) {
  double jaro = JaroSimilarity("prefixes", "prefixed");
  double jw = JaroWinklerSimilarity("prefixes", "prefixed");
  EXPECT_GT(jw, jaro);
  EXPECT_LE(jw, 1.0);
}

TEST(JaroWinklerTest, KnownValue) {
  EXPECT_NEAR(JaroWinklerSimilarity("dwayne", "duane"), 0.84, 0.01);
}

/// Jaccard over the strings' word-token sets: the matcher's name_jaccard
/// feature, in string form.
double TokenSetJaccard(std::string_view a, std::string_view b) {
  return JaccardSimilarity(TokenSet(a), TokenSet(b));
}

// Property sweep: every string similarity is symmetric, in [0,1], and 1 on
// identical inputs.
using StringPair = std::tuple<std::string, std::string>;
class StringSimilarityProperty : public ::testing::TestWithParam<StringPair> {
};

TEST_P(StringSimilarityProperty, SymmetricAndBounded) {
  auto [a, b] = GetParam();
  using Kernel = double (*)(std::string_view, std::string_view);
  for (Kernel fn : {Kernel{JaroSimilarity}, Kernel{JaroWinklerSimilarity},
                    Kernel{TokenSetJaccard}}) {
    double ab = fn(a, b);
    double ba = fn(b, a);
    EXPECT_NEAR(ab, ba, 1e-12);
    EXPECT_GE(ab, 0.0);
    EXPECT_LE(ab, 1.0);
    EXPECT_DOUBLE_EQ(fn(a, a), 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, StringSimilarityProperty,
    ::testing::Values(
        StringPair{"canon eos 5d", "canon 5d eos"},
        StringPair{"sony wh-1000xm4", "sony wh 1000 xm4"},
        StringPair{"", "nonempty"}, StringPair{"a", "b"},
        StringPair{"identical string", "identical string"},
        StringPair{"12.5 cm", "4.9 in"}));

TEST(SetSimilarityTest, JaccardKnownValues) {
  EXPECT_DOUBLE_EQ(JaccardSimilarity({"a", "b"}, {"b", "c"}), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity({"a"}, {}), 0.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity({"a", "b"}, {"a", "b"}), 1.0);
}

TEST(SetSimilarityTest, OverlapCoefficient) {
  EXPECT_DOUBLE_EQ(OverlapCoefficient({"a"}, {"a", "b", "c"}), 1.0);
  EXPECT_DOUBLE_EQ(OverlapCoefficient({"x"}, {"a", "b"}), 0.0);
  EXPECT_DOUBLE_EQ(OverlapCoefficient({}, {}), 1.0);
}

TEST(MongeElkanTest, TokenReorderingTolerant) {
  double sim = MongeElkanSimilarity("canon eos 5d", "5d eos canon");
  EXPECT_GT(sim, 0.95);
}

TEST(MongeElkanTest, EmptyCases) {
  EXPECT_DOUBLE_EQ(MongeElkanSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(MongeElkanSimilarity("a", ""), 0.0);
}

TEST(NumericSimilarityTest, Behaviour) {
  EXPECT_DOUBLE_EQ(NumericSimilarity("10", "10.0"), 1.0);
  EXPECT_NEAR(NumericSimilarity("10", "9"), 0.9, 1e-9);
  EXPECT_DOUBLE_EQ(NumericSimilarity("abc", "10"), 0.0);
  EXPECT_DOUBLE_EQ(NumericSimilarity("0", "0"), 1.0);
  EXPECT_DOUBLE_EQ(NumericSimilarity("10", "-10"), 0.0);
}

}  // namespace
}  // namespace bdi::text
