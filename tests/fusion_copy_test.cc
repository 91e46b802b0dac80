#include <gtest/gtest.h>

#include <set>
#include "bdi/fusion/accu.h"
#include "bdi/fusion/accu_copy.h"
#include "bdi/fusion/copy_detection.h"
#include "bdi/fusion/evaluation.h"
#include "bdi/synth/world.h"
#include "numbered.h"

namespace bdi::fusion {
namespace {

using testing_util::Numbered;

synth::SyntheticWorld CopierWorld(uint64_t seed, int copiers,
                                  double copy_rate = 0.85) {
  synth::WorldConfig config;
  config.seed = seed;
  config.num_entities = 200;
  config.num_sources = 12;
  config.num_copiers = copiers;
  config.copy_rate = copy_rate;
  config.copier_accuracy_min = 0.5;
  config.copier_accuracy_max = 0.7;
  config.source_accuracy_min = 0.75;
  config.source_accuracy_max = 0.95;
  return synth::GenerateWorld(config);
}

TEST(CopyDetectionTest, DetectsPlantedCopiers) {
  synth::SyntheticWorld world = CopierWorld(73, 4);
  ClaimDb db =
      ClaimDb::FromGroundTruth(world.truth, world.dataset.num_sources());
  // Give the detector the (Accu-estimated) accuracies and truth estimates.
  FusionResult accu = AccuFusion().Resolve(db);
  std::vector<SourceDependence> dependencies =
      DetectCopying(db, accu.chosen, accu.source_accuracy, {});
  CopyDetectionQuality quality =
      EvaluateCopyDetection(dependencies, world.truth, 0.5);
  EXPECT_GE(quality.recall, 0.7);
  EXPECT_GE(quality.precision, 0.6);
}

TEST(CopyDetectionTest, NoCopiersMeansFewDetections) {
  synth::SyntheticWorld world = CopierWorld(79, 0);
  ClaimDb db =
      ClaimDb::FromGroundTruth(world.truth, world.dataset.num_sources());
  FusionResult accu = AccuFusion().Resolve(db);
  std::vector<SourceDependence> dependencies =
      DetectCopying(db, accu.chosen, accu.source_accuracy, {});
  size_t detected = 0;
  for (const SourceDependence& d : dependencies) {
    if (d.probability >= 0.5) ++detected;
  }
  // 12 sources -> 66 pairs; independent sources must rarely look dependent.
  EXPECT_LE(detected, 4u);
}

TEST(CopyDetectionTest, SharedFalseValuesAreTheSignal) {
  // Hand-built: sources 0/1 share *false* values on many items (copying);
  // sources 0/2 share only true values (independent but accurate).
  ClaimDb db;
  db.set_num_sources(3);
  std::vector<std::string> truth_estimate;
  for (int i = 0; i < 40; ++i) {
    DataItem item;
    item.entity = i;
    item.attr = 2;
    std::string truth = Numbered("t", i);
    std::string wrong = Numbered("w", i);
    if (i % 2 == 0) {
      item.claims = {{0, wrong}, {1, wrong}, {2, truth}};
    } else {
      item.claims = {{0, truth}, {1, truth}, {2, truth}};
    }
    truth_estimate.push_back(truth);
    db.AddItem(item);
  }
  std::vector<double> accuracy = {0.5, 0.5, 0.99};
  std::vector<SourceDependence> dependencies =
      DetectCopying(db, truth_estimate, accuracy, {});
  double p01 = 0.0, p02 = 0.0;
  for (const SourceDependence& d : dependencies) {
    if (d.a == 0 && d.b == 1) p01 = d.probability;
    if (d.a == 0 && d.b == 2) p02 = d.probability;
  }
  EXPECT_GT(p01, 0.9);
  EXPECT_LT(p02, 0.5);
}

TEST(CopyDetectionTest, MinCommonItemsRespected) {
  ClaimDb db;
  db.set_num_sources(2);
  DataItem item;
  item.claims = {{0, "x"}, {1, "x"}};
  db.AddItem(item);
  CopyDetectionConfig config;
  config.min_common_items = 5;
  std::vector<SourceDependence> dependencies =
      DetectCopying(db, {"x"}, {0.8, 0.8}, config);
  EXPECT_TRUE(dependencies.empty());
}

TEST(CopyDetectionTest, DirectionPointsAtCopier) {
  synth::SyntheticWorld world = CopierWorld(83, 3, 0.9);
  ClaimDb db =
      ClaimDb::FromGroundTruth(world.truth, world.dataset.num_sources());
  FusionResult accu = AccuFusion().Resolve(db);
  std::vector<SourceDependence> dependencies =
      DetectCopying(db, accu.chosen, accu.source_accuracy, {});
  std::set<SourceId> true_copiers;
  for (const CopyEdge& edge : world.truth.copy_edges) {
    true_copiers.insert(edge.copier);
  }
  size_t directed = 0, directed_correct = 0;
  for (const SourceDependence& d : dependencies) {
    if (d.probability < 0.5 || d.likely_copier == kInvalidSource) continue;
    std::pair<SourceId, SourceId> pair{std::min(d.a, d.b),
                                       std::max(d.a, d.b)};
    bool is_true_edge = false;
    for (const CopyEdge& edge : world.truth.copy_edges) {
      if (std::min(edge.copier, edge.original) == pair.first &&
          std::max(edge.copier, edge.original) == pair.second) {
        is_true_edge = true;
      }
    }
    if (!is_true_edge) continue;
    ++directed;
    if (true_copiers.count(d.likely_copier) > 0) ++directed_correct;
  }
  if (directed > 0) {
    EXPECT_GE(static_cast<double>(directed_correct) /
                  static_cast<double>(directed),
              0.6);
  }
}

TEST(IndependenceMatrixTest, SymmetricWithUnitDiagonal) {
  std::vector<SourceDependence> dependencies(1);
  dependencies[0].a = 0;
  dependencies[0].b = 2;
  dependencies[0].probability = 0.8;
  auto matrix = IndependenceMatrix(3, dependencies);
  EXPECT_DOUBLE_EQ(matrix[0][0], 1.0);
  EXPECT_NEAR(matrix[0][2], 0.2, 1e-12);
  EXPECT_DOUBLE_EQ(matrix[0][2], matrix[2][0]);
  EXPECT_DOUBLE_EQ(matrix[0][1], 1.0);
}

TEST(AccuCopyTest, BeatsAccuWithCopiers) {
  // The headline VLDB'09 result: with low-accuracy copiers echoing each
  // other, copy-aware fusion is at least as good as copy-blind fusion, and
  // the copy-blind estimate of copier accuracy is inflated.
  synth::SyntheticWorld world = CopierWorld(89, 5, 0.9);
  ClaimDb db =
      ClaimDb::FromGroundTruth(world.truth, world.dataset.num_sources());
  FusionQuality accu_quality =
      EvaluateFusion(db, AccuFusion().Resolve(db), world.truth);
  AccuCopyFusion accucopy;
  FusionResult accucopy_result = accucopy.Resolve(db);
  FusionQuality accucopy_quality =
      EvaluateFusion(db, accucopy_result, world.truth);
  EXPECT_GE(accucopy_quality.precision, accu_quality.precision - 0.01);
  // And the copy edges must largely be found.
  CopyDetectionQuality detection = EvaluateCopyDetection(
      accucopy.last_dependencies(), world.truth, 0.5);
  EXPECT_GE(detection.recall, 0.6);
}

TEST(AccuCopyTest, NoCopiersNoHarm) {
  synth::SyntheticWorld world = CopierWorld(97, 0);
  ClaimDb db =
      ClaimDb::FromGroundTruth(world.truth, world.dataset.num_sources());
  FusionQuality accu_quality =
      EvaluateFusion(db, AccuFusion().Resolve(db), world.truth);
  FusionQuality accucopy_quality =
      EvaluateFusion(db, AccuCopyFusion().Resolve(db), world.truth);
  EXPECT_GE(accucopy_quality.precision, accu_quality.precision - 0.03);
}

TEST(EvaluationTest, ValuesMatchNumericTolerance) {
  EXPECT_TRUE(ValuesMatch("100", "100", 0.0));
  EXPECT_TRUE(ValuesMatch("100", "100.5", 0.01));
  EXPECT_FALSE(ValuesMatch("100", "103", 0.01));
  EXPECT_FALSE(ValuesMatch("red", "blue", 0.5));
  EXPECT_FALSE(ValuesMatch("100 g", "100 oz", 0.01));  // unit mismatch
}

TEST(EvaluationTest, UnitTolerantMatch) {
  EXPECT_TRUE(ValuesMatchUnitTolerant("254", "100", 0.01));   // cm vs in
  EXPECT_TRUE(ValuesMatchUnitTolerant("100", "254", 0.01));
  EXPECT_FALSE(ValuesMatchUnitTolerant("100", "137", 0.01));
  EXPECT_TRUE(ValuesMatchUnitTolerant("same", "same", 0.0));
}

TEST(EvaluationTest, AccuracyEstimationErrorSkipsCopiers) {
  GroundTruth truth;
  truth.source_accuracy = {0.9, 0.8, 0.5};
  truth.copy_edges = {{2, 0, 0.8}};
  FusionResult result;
  result.source_accuracy = {0.9, 0.7, 0.99};  // copier estimate way off
  // Only sources 0 and 1 count: errors 0.0 and 0.1 -> mean 0.05.
  EXPECT_NEAR(AccuracyEstimationError(result, truth), 0.05, 1e-9);
}

}  // namespace
}  // namespace bdi::fusion
