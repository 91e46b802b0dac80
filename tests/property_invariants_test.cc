// Cross-cutting randomized invariants: algebraic properties that must
// survive any refactoring, checked over fuzzed inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "bdi/common/logging.h"
#include "bdi/common/random.h"
#include "bdi/fusion/accu.h"
#include "bdi/fusion/fusion.h"
#include "bdi/linkage/blocking.h"
#include "bdi/schema/mediated_schema.h"
#include "bdi/synth/world.h"
#include "numbered.h"

namespace bdi {
namespace {

using testing_util::Numbered;

// --- Fusion: claim order must not matter -------------------------------

fusion::ClaimDb RandomClaimDb(Rng* rng, int items, int sources) {
  fusion::ClaimDb db;
  db.set_num_sources(sources);
  for (int i = 0; i < items; ++i) {
    fusion::DataItem item;
    item.entity = i;
    item.attr = 2;
    for (int s = 0; s < sources; ++s) {
      if (rng->Bernoulli(0.7)) {
        item.claims.push_back(
            {s, Numbered("v", rng->UniformInt(0, 3))});
      }
    }
    if (!item.claims.empty()) db.AddItem(item);
  }
  return db;
}

class FusionPermutationTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FusionPermutationTest, ClaimOrderInvariant) {
  Rng rng(GetParam());
  fusion::ClaimDb db = RandomClaimDb(&rng, 30, 8);
  fusion::ClaimDb shuffled = db;
  Rng shuffle_rng(GetParam() + 1);
  for (fusion::DataItem& item : shuffled.items()) {
    shuffle_rng.Shuffle(&item.claims);
  }
  for (int variant = 0; variant < 2; ++variant) {
    std::unique_ptr<fusion::FusionMethod> method;
    if (variant == 0) {
      method = std::make_unique<fusion::VoteFusion>();
    } else {
      method = std::make_unique<fusion::AccuFusion>();
    }
    fusion::FusionResult a = method->Resolve(db);
    fusion::FusionResult b = method->Resolve(shuffled);
    EXPECT_EQ(a.chosen, b.chosen) << method->name();
    for (size_t s = 0; s < a.source_accuracy.size(); ++s) {
      EXPECT_NEAR(a.source_accuracy[s], b.source_accuracy[s], 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FusionPermutationTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// --- Mediated schema: always a partition --------------------------------

class SchemaPartitionTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SchemaPartitionTest, RandomEdgesYieldPartition) {
  synth::WorldConfig config;
  config.seed = GetParam();
  config.num_entities = 40;
  config.num_sources = 5;
  synth::SyntheticWorld world = synth::GenerateWorld(config);
  schema::AttributeStatistics stats =
      schema::AttributeStatistics::Compute(world.dataset);

  // Fuzzed edges with random scores (not the matcher's).
  Rng rng(GetParam() * 7 + 1);
  std::vector<schema::AttrEdge> edges;
  for (int e = 0; e < 200; ++e) {
    size_t a = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(stats.profiles().size()) - 1));
    size_t b = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(stats.profiles().size()) - 1));
    if (a == b) continue;
    edges.push_back({std::min(a, b), std::max(a, b), rng.UniformDouble()});
  }

  for (schema::ClusterMethod method :
       {schema::ClusterMethod::kConnectedComponents,
        schema::ClusterMethod::kCenter}) {
    schema::MediatedSchemaConfig msc;
    msc.threshold = 0.5;
    msc.method = method;
    schema::MediatedSchema schema =
        schema::BuildMediatedSchema(stats, edges, msc);
    // Partition: every profile appears in exactly one cluster.
    size_t members = 0;
    for (const auto& cluster : schema.clusters) {
      EXPECT_FALSE(cluster.empty());
      members += cluster.size();
      for (const SourceAttr& sa : cluster) {
        EXPECT_EQ(schema.ClusterOf(sa),
                  schema.ClusterOf(cluster.front()));
      }
    }
    EXPECT_EQ(members, stats.profiles().size());
    EXPECT_EQ(schema.cluster_names.size(), schema.clusters.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchemaPartitionTest,
                         ::testing::Values(11u, 12u, 13u));

// --- Blocking: pair lists are canonical ---------------------------------

class BlockingCanonicalTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BlockingCanonicalTest, PairsSortedUniqueCrossSource) {
  synth::WorldConfig config;
  config.seed = GetParam();
  config.num_entities = 60;
  config.num_sources = 6;
  synth::SyntheticWorld world = synth::GenerateWorld(config);
  linkage::TokenBlocker blocker;
  std::vector<linkage::Block> blocks =
      blocker.MakeBlocksAll(world.dataset, nullptr);
  std::vector<linkage::CandidatePair> pairs =
      linkage::BlocksToPairs(world.dataset, blocks);
  EXPECT_TRUE(std::is_sorted(pairs.begin(), pairs.end()));
  EXPECT_EQ(std::adjacent_find(pairs.begin(), pairs.end()), pairs.end());
  for (const linkage::CandidatePair& pair : pairs) {
    EXPECT_LT(pair.a, pair.b);
    EXPECT_NE(world.dataset.record(pair.a).source,
              world.dataset.record(pair.b).source);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlockingCanonicalTest,
                         ::testing::Values(21u, 22u, 23u));

// --- Logging -------------------------------------------------------------

TEST(LoggingTest, LevelRoundTrip) {
  LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  SetLogLevel(LogLevel::kDebug);
  EXPECT_EQ(GetLogLevel(), LogLevel::kDebug);
  SetLogLevel(before);
}

TEST(LoggingTest, MacroCompilesAndFilters) {
  LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  // Dropped message: the stream expression must still be well-formed.
  BDI_LOG(kInfo) << "this line is filtered " << 42;
  SetLogLevel(before);
}

TEST(LoggingDeathTest, CheckAborts) {
  EXPECT_DEATH({ BDI_CHECK(1 == 2) << "boom"; }, "Check failed");
}

}  // namespace
}  // namespace bdi
