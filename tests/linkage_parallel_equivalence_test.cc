// Serial-vs-parallel equivalence for the linkage pipeline: the chunked
// matching passes write each candidate's score into its own slot, so any
// thread count must produce the identical match list (same pairs, bitwise
// equal scores) and identical clustering — the linkage counterpart of the
// fusion determinism contract.
#include "bdi/linkage/linkage.h"

#include <gtest/gtest.h>

#include "bdi/synth/world.h"
#include "linkage_reference_matcher.h"

namespace bdi::linkage {
namespace {

synth::SyntheticWorld MakeWorld() {
  synth::WorldConfig config;
  config.seed = 7;
  config.num_entities = 200;
  config.num_sources = 14;
  return synth::GenerateWorld(config);
}

LinkageResult RunWith(const synth::SyntheticWorld& world, ScorerKind scorer,
                      size_t num_threads) {
  LinkerConfig config;
  config.scorer = scorer;
  config.num_threads = num_threads;
  Linker linker(&world.dataset, config);
  return linker.Run();
}

TEST(LinkageParallelEquivalenceTest, RuleScorerMatchesSerial) {
  synth::SyntheticWorld world = MakeWorld();
  ExpectSameLinkage(RunWith(world, ScorerKind::kRule, 1),
                    RunWith(world, ScorerKind::kRule, 8));
}

TEST(LinkageParallelEquivalenceTest, LinearScorerMatchesSerial) {
  synth::SyntheticWorld world = MakeWorld();
  ExpectSameLinkage(RunWith(world, ScorerKind::kLinear, 1),
                    RunWith(world, ScorerKind::kLinear, 8));
}

}  // namespace
}  // namespace bdi::linkage
