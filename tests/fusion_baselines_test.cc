#include "bdi/fusion/baselines.h"

#include <gtest/gtest.h>

#include <memory>

#include "bdi/fusion/evaluation.h"
#include "bdi/synth/world.h"
#include "numbered.h"

namespace bdi::fusion {
namespace {

using testing_util::Numbered;

ClaimDb SkewedDb() {
  // Sources 0,1 always right; 2 always wrong over 30 items.
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
  return db;
}

TEST(TwoEstimatesTest, LearnsSourceErrors) {
  FusionResult result = TwoEstimatesFusion().Resolve(SkewedDb());
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(result.chosen[i], Numbered("t", i));
  }
  EXPECT_GT(result.source_accuracy[0], result.source_accuracy[2]);
}

TEST(PooledInvestmentTest, TrustFlowsToConsistentSources) {
  FusionResult result = PooledInvestmentFusion().Resolve(SkewedDb());
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(result.chosen[i], Numbered("t", i));
  }
  EXPECT_GT(result.source_accuracy[0], result.source_accuracy[2]);
}

class BaselineFusionTest : public ::testing::TestWithParam<int> {
 protected:
  std::unique_ptr<FusionMethod> MakeMethod() const {
    if (GetParam() == 0) return std::make_unique<TwoEstimatesFusion>();
    return std::make_unique<PooledInvestmentFusion>();
  }
};

TEST_P(BaselineFusionTest, OutputShapeInvariants) {
  synth::WorldConfig config;
  config.seed = 901;
  config.num_entities = 120;
  config.num_sources = 10;
  config.format_variation_prob = 0.0;
  synth::SyntheticWorld world = synth::GenerateWorld(config);
  ClaimDb db =
      ClaimDb::FromGroundTruth(world.truth, world.dataset.num_sources());
  FusionResult result = MakeMethod()->Resolve(db);
  ASSERT_EQ(result.chosen.size(), db.items().size());
  for (size_t i = 0; i < db.items().size(); ++i) {
    bool claimed = false;
    for (const Claim& claim : db.items()[i].claims) {
      if (claim.value == result.chosen[i]) claimed = true;
    }
    EXPECT_TRUE(claimed) << i;
    EXPECT_GE(result.confidence[i], 0.0);
    EXPECT_LE(result.confidence[i], 1.0 + 1e-9);
  }
  for (double a : result.source_accuracy) {
    EXPECT_GE(a, 0.0);
    EXPECT_LE(a, 1.0 + 1e-9);
  }
}

TEST_P(BaselineFusionTest, BeatsCoinFlipOnCleanWorld) {
  synth::WorldConfig config;
  config.seed = 907;
  config.num_entities = 150;
  config.num_sources = 12;
  config.source_accuracy_min = 0.75;
  config.source_accuracy_max = 0.95;
  config.format_variation_prob = 0.0;
  synth::SyntheticWorld world = synth::GenerateWorld(config);
  ClaimDb db =
      ClaimDb::FromGroundTruth(world.truth, world.dataset.num_sources());
  FusionResult result = MakeMethod()->Resolve(db);
  FusionQuality quality = EvaluateFusion(db, result, world.truth);
  // 2-Estimates is known to be the unstable one (cf. "Truth Finding on
  // the Deep Web": advanced methods do not uniformly beat voting).
  double floor = GetParam() == 0 ? 0.7 : 0.8;
  EXPECT_GE(quality.precision, floor);
}

INSTANTIATE_TEST_SUITE_P(Baselines, BaselineFusionTest,
                         ::testing::Values(0, 1));

TEST(BaselinesTest, EmptyDb) {
  ClaimDb db;
  db.set_num_sources(2);
  EXPECT_TRUE(TwoEstimatesFusion().Resolve(db).chosen.empty());
  EXPECT_TRUE(PooledInvestmentFusion().Resolve(db).chosen.empty());
}

}  // namespace
}  // namespace bdi::fusion
