#include "bdi/linkage/linkage.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "bdi/linkage/meta_blocking.h"
#include "bdi/linkage/progressive.h"
#include "bdi/synth/world.h"

namespace bdi::linkage {
namespace {

synth::SyntheticWorld MakeWorld(uint64_t seed = 31) {
  synth::WorldConfig config;
  config.seed = seed;
  config.num_entities = 150;
  config.num_sources = 10;
  return synth::GenerateWorld(config);
}

TEST(LinkerTest, DefaultPipelineLinksWell) {
  synth::SyntheticWorld world = MakeWorld();
  Linker linker(&world.dataset, {});
  LinkageResult result = linker.Run();
  EXPECT_GT(result.num_candidates, 0u);
  EXPECT_GT(result.num_matches, 0u);
  LinkageQuality quality = EvaluateClusters(
      result.clusters.label_of_record, world.truth.entity_of_record);
  EXPECT_GE(quality.precision, 0.9);
  EXPECT_GE(quality.recall, 0.85);
}

TEST(LinkerTest, LabelsCoverEveryRecord) {
  synth::SyntheticWorld world = MakeWorld();
  Linker linker(&world.dataset, {});
  LinkageResult result = linker.Run();
  EXPECT_EQ(result.clusters.label_of_record.size(),
            world.dataset.num_records());
}

// Labels from scoring `candidates` with `scorer` over the linker's
// features through the progressive scheduler, then connected components.
std::vector<EntityId> ScoreAndCluster(
    Linker& linker, const PairScorer& scorer,
    const std::vector<CandidatePair>& candidates, size_t num_records) {
  std::vector<double> scores(candidates.size());
  std::vector<uint8_t> scored(candidates.size(), 0);
  ScorePairsProgressive(linker.extractor(), scorer, candidates.data(),
                        candidates.size(), /*comparison_budget=*/0.0,
                        /*budget_ms=*/0.0, /*num_threads=*/0, scores.data(),
                        scored.data());
  std::vector<ScoredPair> matches;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (scored[i] != 0 && scores[i] >= scorer.threshold()) {
      matches.push_back(ScoredPair{candidates[i], scores[i]});
    }
  }
  return ClusterRecords(num_records, matches,
                        ClusteringMethod::kConnectedComponents)
      .label_of_record;
}

// Where a sweep case takes its candidate pairs from: token blocks,
// identifier blocks, or the Linker's own index (their union). The values
// keep the case names of the earlier sweep over LinkerConfig's blocker
// switch (token 0, identifier 1, token + identifier 4).
enum class CandidateSource {
  kTokenBlocks = 0,
  kIdentifierBlocks = 1,
  kLinkerIndex = 4,
};

// Candidate sources x scorers sweep: quality floors hold for every
// combination.
using LinkerParam = std::tuple<CandidateSource, ScorerKind>;
class LinkerSweepTest : public ::testing::TestWithParam<LinkerParam> {};

TEST_P(LinkerSweepTest, QualityFloor) {
  auto [source, scorer_kind] = GetParam();
  synth::SyntheticWorld world = MakeWorld(37);
  const Dataset& dataset = world.dataset;
  Linker linker(&dataset, {});
  linker.Run();
  std::vector<CandidatePair> candidates = linker.last_candidates();
  if (source != CandidateSource::kLinkerIndex) {
    std::unique_ptr<Blocker> blocker;
    if (source == CandidateSource::kTokenBlocks) {
      blocker = std::make_unique<TokenBlocker>();
    } else {
      blocker = std::make_unique<IdentifierBlocker>();
    }
    candidates = BlocksToPairs(
        dataset, blocker->MakeBlocksAll(dataset, &linker.roles()));
  }
  std::unique_ptr<PairScorer> scorer = MakeScorer(scorer_kind, 0.5);
  if (scorer_kind == ScorerKind::kLearned) {
    // Active-learning stand-in: label a sample of the linker's candidate
    // pairs (the pairs a matcher actually faces) with ground truth and fit
    // the logistic scorer on them.
    std::vector<PairFeatures> features;
    std::vector<int> labels;
    const std::vector<CandidatePair>& sample = linker.last_candidates();
    size_t stride = std::max<size_t>(1, sample.size() / 800);
    text::SimilarityScratch scratch;
    for (size_t i = 0; i < sample.size(); i += stride) {
      const CandidatePair& pair = sample[i];
      features.push_back(linker.extractor().Extract(pair.a, pair.b, scratch));
      labels.push_back(world.truth.entity_of_record[pair.a] ==
                               world.truth.entity_of_record[pair.b]
                           ? 1
                           : 0);
    }
    auto trained = std::make_unique<LearnedScorer>();
    trained->Train(features, labels);
    trained->set_threshold(0.5);
    scorer = std::move(trained);
  }
  LinkageQuality quality = EvaluateClusters(
      ScoreAndCluster(linker, *scorer, candidates, dataset.num_records()),
      world.truth.entity_of_record);
  EXPECT_GE(quality.precision, 0.75);
  EXPECT_GE(quality.recall, 0.5);
}

INSTANTIATE_TEST_SUITE_P(
    Combos, LinkerSweepTest,
    ::testing::Combine(
        ::testing::Values(CandidateSource::kTokenBlocks,
                          CandidateSource::kIdentifierBlocks,
                          CandidateSource::kLinkerIndex),
        ::testing::Values(ScorerKind::kLinear, ScorerKind::kRule,
                          ScorerKind::kLearned)));

// Meta-blocking, composed from the blocks outside the Linker: pruning the
// token blocks' graph shrinks the candidates and keeps most of the recall.
TEST(LinkerTest, MetaBlockingShrinksCandidates) {
  synth::SyntheticWorld world = MakeWorld(41);
  const Dataset& dataset = world.dataset;
  Linker linker(&dataset, {});
  std::vector<Block> blocks =
      TokenBlocker().MakeBlocksAll(dataset, &linker.roles());
  std::vector<CandidatePair> plain = BlocksToPairs(dataset, blocks);
  std::vector<CandidatePair> meta =
      MetaBlock(dataset, blocks, MetaBlockingConfig());

  EXPECT_LT(meta.size(), plain.size());
  LinkageQuality q_meta = EvaluateClusters(
      ScoreAndCluster(linker, linker.scorer(), meta, dataset.num_records()),
      world.truth.entity_of_record);
  EXPECT_GE(q_meta.recall, 0.5);
}

TEST(LinkerTest, HarderNoiseStillReasonable) {
  synth::WorldConfig config;
  config.seed = 43;
  config.num_entities = 120;
  config.num_sources = 8;
  config.identifier_presence_prob = 0.5;
  config.identifier_noise_prob = 0.1;
  config.name_noise.typo_prob = 0.15;
  config.name_noise.extra_token_prob = 0.3;
  synth::SyntheticWorld world = synth::GenerateWorld(config);
  Linker linker(&world.dataset, {});
  LinkageResult result = linker.Run();
  LinkageQuality quality = EvaluateClusters(
      result.clusters.label_of_record, world.truth.entity_of_record);
  EXPECT_GE(quality.f1, 0.6);
}

TEST(LinkerTest, RelatedProductIdsDoNotExplodePrecision) {
  synth::WorldConfig config;
  config.seed = 47;
  config.num_entities = 120;
  config.num_sources = 8;
  config.related_products_prob = 0.3;
  synth::SyntheticWorld world = synth::GenerateWorld(config);
  Linker linker(&world.dataset, {});
  LinkageResult result = linker.Run();
  LinkageQuality quality = EvaluateClusters(
      result.clusters.label_of_record, world.truth.entity_of_record);
  EXPECT_GE(quality.precision, 0.8);
}

}  // namespace
}  // namespace bdi::linkage
