#include "bdi/fusion/online.h"

#include <gtest/gtest.h>

#include "bdi/fusion/evaluation.h"
#include "bdi/synth/world.h"
#include "numbered.h"

namespace bdi::fusion {
namespace {

using testing_util::Numbered;

ClaimDb UnanimousDb(int sources, int items) {
  ClaimDb db;
  db.set_num_sources(sources);
  for (int i = 0; i < items; ++i) {
    DataItem item;
    item.entity = i;
    item.attr = 2;
    for (int s = 0; s < sources; ++s) {
      item.claims.push_back({s, Numbered("t", i)});
    }
    db.AddItem(item);
  }
  return db;
}

TEST(OnlineFusionTest, UnanimousItemsStopEarly) {
  ClaimDb db = UnanimousDb(10, 20);
  std::vector<double> accuracy(10, 0.9);
  OnlineFusionResult result = ResolveOnline(db, accuracy).value();
  for (size_t i = 0; i < db.items().size(); ++i) {
    EXPECT_EQ(result.chosen[i], Numbered("t", i));
    EXPECT_LT(result.probes[i], 10u) << "should not probe everyone";
  }
  // With 10 equal 0.9-accuracy sources, the majority becomes unassailable
  // after ~6 agreeing probes.
  EXPECT_LT(result.probe_fraction(), 0.8);
}

TEST(OnlineFusionTest, ConflictForcesMoreProbes) {
  ClaimDb unanimous = UnanimousDb(10, 1);
  ClaimDb contested;
  contested.set_num_sources(10);
  DataItem item;
  item.entity = 0;
  item.attr = 2;
  for (int s = 0; s < 10; ++s) {
    item.claims.push_back({s, s % 2 == 0 ? "a" : "b"});
  }
  contested.AddItem(item);
  std::vector<double> accuracy(10, 0.9);
  // Exercise the exact stopping rule (disable the approximate bar).
  OnlineFusionConfig config;
  config.confidence_stop = 1.1;
  OnlineFusionResult easy =
      ResolveOnline(unanimous, accuracy, config).value();
  OnlineFusionResult hard =
      ResolveOnline(contested, accuracy, config).value();
  EXPECT_GT(hard.probes[0], easy.probes[0]);
  EXPECT_EQ(hard.probes[0], 10u);  // a 5-5 split can never terminate early
}

TEST(OnlineFusionTest, MatchesBatchOnCleanWorld) {
  synth::WorldConfig config;
  config.seed = 401;
  config.num_entities = 200;
  config.num_sources = 14;
  config.source_accuracy_min = 0.7;
  config.source_accuracy_max = 0.95;
  config.format_variation_prob = 0.0;
  synth::SyntheticWorld world = synth::GenerateWorld(config);
  ClaimDb db =
      ClaimDb::FromGroundTruth(world.truth, world.dataset.num_sources());

  // Batch reference and its accuracy estimates.
  FusionResult batch = AccuFusion().Resolve(db);
  FusionQuality batch_quality = EvaluateFusion(db, batch, world.truth);

  OnlineFusionResult online =
      ResolveOnline(db, batch.source_accuracy).value();
  // Adapt to the FusionResult shape for evaluation.
  FusionResult as_result;
  as_result.chosen = online.chosen;
  as_result.confidence = online.confidence;
  as_result.source_accuracy = batch.source_accuracy;
  FusionQuality online_quality = EvaluateFusion(db, as_result, world.truth);

  EXPECT_GE(online_quality.precision, batch_quality.precision - 0.03);
  EXPECT_LT(online.probe_fraction(), 0.85);
}

TEST(OnlineFusionTest, LowerConfidenceBarProbesLess) {
  synth::WorldConfig config;
  config.seed = 402;
  config.num_entities = 150;
  config.num_sources = 12;
  config.format_variation_prob = 0.0;
  synth::SyntheticWorld world = synth::GenerateWorld(config);
  ClaimDb db =
      ClaimDb::FromGroundTruth(world.truth, world.dataset.num_sources());
  FusionResult batch = AccuFusion().Resolve(db);
  OnlineFusionConfig strict;
  strict.confidence_stop = 0.99;
  OnlineFusionConfig loose;
  loose.confidence_stop = 0.7;
  OnlineFusionResult strict_result =
      ResolveOnline(db, batch.source_accuracy, strict).value();
  OnlineFusionResult loose_result =
      ResolveOnline(db, batch.source_accuracy, loose).value();
  EXPECT_LE(loose_result.total_probes, strict_result.total_probes);
}

TEST(OnlineFusionTest, EmptyDb) {
  ClaimDb db;
  db.set_num_sources(3);
  OnlineFusionResult result =
      ResolveOnline(db, {0.9, 0.8, 0.7}).value();
  EXPECT_EQ(result.total_probes, 0u);
  EXPECT_DOUBLE_EQ(result.probe_fraction(), 0.0);
}

TEST(OnlineFusionTest, ProbeOrderFollowsAccuracy) {
  // With one highly accurate source and early termination, single-claim
  // agreement from the top source can settle an item immediately.
  ClaimDb db;
  db.set_num_sources(3);
  DataItem item;
  item.entity = 0;
  item.attr = 2;
  item.claims = {{0, "x"}, {1, "x"}, {2, "x"}};
  db.AddItem(item);
  OnlineFusionConfig config;
  config.confidence_stop = 0.9;
  OnlineFusionResult result =
      ResolveOnline(db, {0.5, 0.99, 0.5}, config).value();
  EXPECT_EQ(result.chosen[0], "x");
  // The accurate source (weight ln(10*99)) dominates after 1-2 probes.
  EXPECT_LE(result.probes[0], 2u);
}

TEST(OnlineFusionTest, ShortAccuracyVectorReturnsStatus) {
  ClaimDb db = UnanimousDb(5, 3);
  Result<OnlineFusionResult> result = ResolveOnline(db, {0.9, 0.9});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(OnlineFusionTest, ProbeOrderUsesClampedAccuracies) {
  // Two accuracy vectors that clamp to the same values must behave
  // identically — the probe order is driven by the clamped accuracies
  // that also set the vote weights, never by the raw estimates.
  ClaimDb db = UnanimousDb(4, 8);
  OnlineFusionConfig config;  // max_accuracy 0.99 clamps everything below
  OnlineFusionResult a =
      ResolveOnline(db, {0.999, 0.995, 0.993, 0.991}, config).value();
  OnlineFusionResult b =
      ResolveOnline(db, {0.991, 0.993, 0.995, 0.999}, config).value();
  EXPECT_EQ(a.chosen, b.chosen);
  EXPECT_EQ(a.probes, b.probes);
  EXPECT_EQ(a.confidence, b.confidence);
}

}  // namespace
}  // namespace bdi::fusion
