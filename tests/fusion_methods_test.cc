#include <gtest/gtest.h>

#include <memory>

#include "bdi/fusion/accu.h"
#include "bdi/fusion/accu_copy.h"
#include "bdi/fusion/evaluation.h"
#include "bdi/fusion/fusion.h"
#include "bdi/fusion/truthfinder.h"
#include "bdi/synth/world.h"
#include "numbered.h"

namespace bdi::fusion {
namespace {

using testing_util::Numbered;

ClaimDb TwoValueDb() {
  // Item 0: sources 0,1 say "x"; source 2 says "y".
  ClaimDb db;
  db.set_num_sources(3);
  DataItem item;
  item.entity = 0;
  item.attr = 2;
  item.claims = {{0, "x"}, {1, "x"}, {2, "y"}};
  db.AddItem(item);
  return db;
}

TEST(VoteTest, MajorityWins) {
  FusionResult result = VoteFusion().Resolve(TwoValueDb());
  EXPECT_EQ(result.chosen[0], "x");
  EXPECT_NEAR(result.confidence[0], 2.0 / 3.0, 1e-9);
}

TEST(VoteTest, TieBrokenDeterministically) {
  ClaimDb db;
  db.set_num_sources(2);
  DataItem item;
  item.claims = {{0, "b"}, {1, "a"}};
  db.AddItem(item);
  FusionResult result = VoteFusion().Resolve(db);
  EXPECT_EQ(result.chosen[0], "a");  // lexicographic tie-break
}

TEST(VoteTest, AgreementRateAsAccuracyEstimate) {
  FusionResult result = VoteFusion().Resolve(TwoValueDb());
  EXPECT_DOUBLE_EQ(result.source_accuracy[0], 1.0);
  EXPECT_DOUBLE_EQ(result.source_accuracy[2], 0.0);
}

TEST(WeightedVoteTest, WeightsFlipOutcome) {
  ClaimDb db = TwoValueDb();
  WeightedVoteFusion fusion({0.1, 0.1, 1.0});
  FusionResult result = fusion.Resolve(db);
  EXPECT_EQ(result.chosen[0], "y");
}

TEST(AccuTest, AccurateSourcesDominate) {
  // 3 sources; source 2 is always wrong, 0 and 1 always right over many
  // items -> Accu should learn this and trust 0/1.
  ClaimDb db;
  db.set_num_sources(3);
  for (int i = 0; i < 40; ++i) {
    DataItem item;
    item.entity = i;
    item.attr = 2;
    item.claims = {{0, Numbered("t", i)},
                   {1, Numbered("t", i)},
                   {2, Numbered("f", i)}};
    db.AddItem(item);
  }
  FusionResult result = AccuFusion().Resolve(db);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(result.chosen[i], Numbered("t", i));
  }
  EXPECT_GT(result.source_accuracy[0], 0.9);
  EXPECT_LT(result.source_accuracy[2], 0.1);
}

TEST(AccuTest, SingleClaimItems) {
  ClaimDb db;
  db.set_num_sources(1);
  DataItem item;
  item.claims = {{0, "only"}};
  db.AddItem(item);
  FusionResult result = AccuFusion().Resolve(db);
  EXPECT_EQ(result.chosen[0], "only");
  EXPECT_NEAR(result.confidence[0], 1.0, 1e-9);
}

TEST(AccuTest, EmptyDb) {
  ClaimDb db;
  db.set_num_sources(2);
  FusionResult result = AccuFusion().Resolve(db);
  EXPECT_TRUE(result.chosen.empty());
  EXPECT_EQ(result.source_accuracy.size(), 2u);
}

TEST(AccuTest, ConvergesWithinMaxIterations) {
  synth::WorldConfig config;
  config.seed = 63;
  config.num_entities = 200;
  config.num_sources = 10;
  synth::SyntheticWorld world = synth::GenerateWorld(config);
  ClaimDb db =
      ClaimDb::FromGroundTruth(world.truth, world.dataset.num_sources());
  AccuConfig accu_config;
  accu_config.max_iterations = 50;
  FusionResult result = AccuFusion(accu_config).Resolve(db);
  EXPECT_LT(result.iterations, 50);
}

TEST(ClaimValueSimilarityTest, Behaviour) {
  EXPECT_DOUBLE_EQ(ClaimValueSimilarity("same", "same"), 1.0);
  EXPECT_NEAR(ClaimValueSimilarity("100", "99"), 0.99, 1e-9);
  EXPECT_GT(ClaimValueSimilarity("color_v1", "color_v2"), 0.8);  // JW
}

TEST(AccuSimTest, NearMissValuesBoostTruth) {
  // Numeric item where errors cluster near the truth: AccuSim should pick
  // the value supported by similar values even against a exact-tie.
  ClaimDb db;
  db.set_num_sources(4);
  DataItem item;
  item.entity = 0;
  item.attr = 2;
  // Three sources report near-identical values around the truth (different
  // round-off), two sources agree exactly on a far-off false value. Exact-
  // match Accu sees three singleton values losing to the pair; AccuSim
  // lets the near-misses reinforce each other.
  item.claims = {{0, "100"}, {1, "101"}, {2, "99.5"}, {4, "500"}, {5, "500"}};
  db.set_num_sources(6);
  db.AddItem(item);
  FusionResult plain = AccuFusion().Resolve(db);
  EXPECT_EQ(plain.chosen[0], "500");
  AccuConfig sim;
  sim.similarity_rho = 0.8;
  FusionResult with_sim = AccuFusion(sim).Resolve(db);
  EXPECT_TRUE(with_sim.chosen[0] == "100" || with_sim.chosen[0] == "101" ||
              with_sim.chosen[0] == "99.5")
      << with_sim.chosen[0];
}

// Property sweep over fusion methods: output shape invariants.
class FusionMethodTest : public ::testing::TestWithParam<int> {
 protected:
  std::unique_ptr<FusionMethod> MakeMethod() const {
    switch (GetParam()) {
      case 0:
        return std::make_unique<VoteFusion>();
      case 1:
        return std::make_unique<AccuFusion>();
      case 2: {
        AccuConfig config;
        config.similarity_rho = 0.3;
        return std::make_unique<AccuFusion>(config);
      }
      case 3:
        return std::make_unique<TruthFinderFusion>();
      default:
        return std::make_unique<AccuCopyFusion>();
    }
  }
};

TEST_P(FusionMethodTest, OutputShapeInvariants) {
  synth::WorldConfig config;
  config.seed = 67;
  config.num_entities = 100;
  config.num_sources = 8;
  config.num_copiers = 2;
  synth::SyntheticWorld world = synth::GenerateWorld(config);
  ClaimDb db =
      ClaimDb::FromGroundTruth(world.truth, world.dataset.num_sources());
  FusionResult result = MakeMethod()->Resolve(db);
  ASSERT_EQ(result.chosen.size(), db.items().size());
  ASSERT_EQ(result.confidence.size(), db.items().size());
  ASSERT_EQ(result.source_accuracy.size(), db.num_sources());
  for (size_t i = 0; i < db.items().size(); ++i) {
    // The chosen value is always one of the claimed values.
    bool claimed = false;
    for (const Claim& claim : db.items()[i].claims) {
      if (claim.value == result.chosen[i]) claimed = true;
    }
    EXPECT_TRUE(claimed) << "item " << i;
    EXPECT_GE(result.confidence[i], 0.0);
    EXPECT_LE(result.confidence[i], 1.0 + 1e-9);
  }
  for (double accuracy : result.source_accuracy) {
    EXPECT_GE(accuracy, 0.0);
    EXPECT_LE(accuracy, 1.0);
  }
}

TEST_P(FusionMethodTest, BeatsWorstCaseOnCleanWorld) {
  synth::WorldConfig config;
  config.seed = 71;
  config.num_entities = 150;
  config.num_sources = 10;
  config.source_accuracy_min = 0.8;
  config.source_accuracy_max = 0.95;
  synth::SyntheticWorld world = synth::GenerateWorld(config);
  ClaimDb db =
      ClaimDb::FromGroundTruth(world.truth, world.dataset.num_sources());
  FusionResult result = MakeMethod()->Resolve(db);
  FusionQuality quality = EvaluateFusion(db, result, world.truth);
  // Any reasonable method beats the average single source (~0.875).
  EXPECT_GE(quality.precision, 0.85);
}

INSTANTIATE_TEST_SUITE_P(AllMethods, FusionMethodTest,
                         ::testing::Values(0, 1, 2, 3, 4));

TEST(CalibrationTest, BucketsPartitionItems) {
  synth::WorldConfig config;
  config.seed = 1601;
  config.num_entities = 150;
  config.num_sources = 10;
  config.format_variation_prob = 0.0;
  synth::SyntheticWorld world = synth::GenerateWorld(config);
  ClaimDb db =
      ClaimDb::FromGroundTruth(world.truth, world.dataset.num_sources());
  FusionResult result = AccuFusion().Resolve(db);
  CalibrationReport report = EvaluateCalibration(db, result, world.truth);
  ASSERT_EQ(report.buckets.size(), 10u);
  size_t total = 0;
  for (const CalibrationBucket& bucket : report.buckets) {
    total += bucket.items;
    if (bucket.items > 0) {
      EXPECT_GE(bucket.mean_confidence, bucket.lower - 1e-9);
      EXPECT_LE(bucket.mean_confidence, bucket.upper + 1e-9);
      EXPECT_GE(bucket.empirical_accuracy, 0.0);
      EXPECT_LE(bucket.empirical_accuracy, 1.0);
    }
  }
  EXPECT_GT(total, 500u);
  EXPECT_GE(report.expected_calibration_error, 0.0);
  EXPECT_LE(report.expected_calibration_error, 1.0);
}

TEST(CalibrationTest, AccuReasonablyCalibrated) {
  // On model-matching data, Accu's confidences should not be wildly off:
  // high-confidence buckets must actually be more accurate than
  // low-confidence ones.
  synth::WorldConfig config;
  config.seed = 1607;
  config.num_entities = 250;
  config.num_sources = 12;
  config.source_accuracy_min = 0.6;
  config.source_accuracy_max = 0.95;
  config.format_variation_prob = 0.0;
  synth::SyntheticWorld world = synth::GenerateWorld(config);
  ClaimDb db =
      ClaimDb::FromGroundTruth(world.truth, world.dataset.num_sources());
  FusionResult result = AccuFusion().Resolve(db);
  CalibrationReport report = EvaluateCalibration(db, result, world.truth);
  // Compare the top bucket against the lowest populated bucket.
  const CalibrationBucket* low = nullptr;
  const CalibrationBucket* high = nullptr;
  for (const CalibrationBucket& bucket : report.buckets) {
    if (bucket.items < 10) continue;
    if (low == nullptr) low = &bucket;
    high = &bucket;
  }
  ASSERT_NE(low, nullptr);
  ASSERT_NE(high, nullptr);
  if (low != high) {
    EXPECT_GT(high->empirical_accuracy, low->empirical_accuracy);
  }
  EXPECT_LT(report.expected_calibration_error, 0.25);
}

TEST(TruthFinderTest, TrustPropagates) {
  ClaimDb db;
  db.set_num_sources(3);
  for (int i = 0; i < 30; ++i) {
    DataItem item;
    item.entity = i;
    item.attr = 2;
    item.claims = {{0, Numbered("t", i)},
                   {1, Numbered("t", i)},
                   {2, Numbered("f", i)}};
    db.AddItem(item);
  }
  FusionResult result = TruthFinderFusion().Resolve(db);
  EXPECT_GT(result.source_accuracy[0], result.source_accuracy[2]);
  EXPECT_EQ(result.chosen[0], "t0");
}

}  // namespace
}  // namespace bdi::fusion
