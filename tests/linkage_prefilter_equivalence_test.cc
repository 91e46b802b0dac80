// Equivalence contract for the matcher's comparison cascade: the
// prefilter may only skip pairs whose true score provably cannot reach
// the threshold, so a Linker run must produce the reference matcher's
// bitwise-identical match list (same pairs, bitwise equal scores) and
// identical clustering — the reference scores every candidate with the
// full kernels and no prefilter (linkage_reference_matcher.h) — serial
// and parallel. Named *ParallelEquivalence* so the tsan/asan equivalence
// ctest presets pick it up.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "bdi/linkage/linkage.h"
#include "bdi/synth/world.h"
#include "bdi/text/interner.h"
#include "bdi/text/similarity.h"
#include "linkage_reference_matcher.h"

namespace bdi::linkage {
namespace {

synth::SyntheticWorld MakeWorld() {
  synth::WorldConfig config;
  config.seed = 11;
  config.num_entities = 200;
  config.num_sources = 14;
  return synth::GenerateWorld(config);
}

LinkageResult RunWith(const synth::SyntheticWorld& world, ScorerKind scorer,
                      size_t num_threads) {
  LinkerConfig config;
  config.scorer = scorer;
  config.num_threads = num_threads;
  return RunAgainstReference(world.dataset, config);
}

TEST(LinkagePrefilterParallelEquivalenceTest, RuleScorerSerial) {
  synth::SyntheticWorld world = MakeWorld();
  // The equality is only meaningful if the prefilter actually skipped.
  EXPECT_GT(RunWith(world, ScorerKind::kRule, 1).num_prefiltered, 0u);
}

TEST(LinkagePrefilterParallelEquivalenceTest, RuleScorerParallel) {
  synth::SyntheticWorld world = MakeWorld();
  RunWith(world, ScorerKind::kRule, 8);
}

TEST(LinkagePrefilterParallelEquivalenceTest, LinearScorerSerial) {
  synth::SyntheticWorld world = MakeWorld();
  EXPECT_GT(RunWith(world, ScorerKind::kLinear, 1).num_prefiltered, 0u);
}

TEST(LinkagePrefilterParallelEquivalenceTest, LinearScorerParallel) {
  synth::SyntheticWorld world = MakeWorld();
  RunWith(world, ScorerKind::kLinear, 8);
}

// The Linker's learned scorer is untrained (all-zero weights), so every
// pair scores exactly sigmoid(0) and its bound cannot prune anything; the
// run must still reproduce the reference matcher's match list and scores.
TEST(LinkagePrefilterParallelEquivalenceTest, LearnedScorerSerial) {
  synth::SyntheticWorld world = MakeWorld();
  RunWith(world, ScorerKind::kLearned, 1);
}

TEST(LinkagePrefilterParallelEquivalenceTest, LearnedScorerParallel) {
  synth::SyntheticWorld world = MakeWorld();
  RunWith(world, ScorerKind::kLearned, 8);
}

// Every candidate the prefilter would skip must truly score below the
// threshold — checked against the full extractor over all candidates of
// the synthetic world, for each scorer kind.
TEST(LinkagePrefilterParallelEquivalenceTest, SkippedPairsScoreBelowThreshold) {
  synth::SyntheticWorld world = MakeWorld();
  for (ScorerKind kind :
       {ScorerKind::kRule, ScorerKind::kLinear, ScorerKind::kLearned}) {
    LinkerConfig config;
    config.scorer = kind;
    config.num_threads = 1;
    Linker linker(&world.dataset, config);
    LinkageResult result = linker.Run();
    const FeatureExtractor& extractor = linker.extractor();
    const PairScorer& scorer = linker.scorer();
    double threshold = scorer.threshold();
    size_t skipped = 0;
    text::SimilarityScratch scratch;
    for (const CandidatePair& pair : linker.last_candidates()) {
      PairFeatures bounds = extractor.ExtractBounds(pair.a, pair.b, scratch);
      double bound = scorer.ScoreUpperBound(bounds);
      PairFeatures features = extractor.Extract(pair.a, pair.b, scratch);
      double score = scorer.Score(features);
      // The bound contract itself: never below the true score.
      ASSERT_GE(bound, score)
          << "pair (" << pair.a << ", " << pair.b << ") scorer "
          << scorer.name();
      if (bound + kPrefilterSlack < threshold) {
        ++skipped;
        ASSERT_LT(score, threshold)
            << "pair (" << pair.a << ", " << pair.b << ") scorer "
            << scorer.name();
      }
    }
    EXPECT_EQ(skipped, result.num_prefiltered) << "scorer " << scorer.name();
  }
}

// Kernel-level fuzz for the signature bounds: on random token pairs the
// Jaro-Winkler bound, and on random token sequences the Monge-Elkan bound,
// must never under-bound the true kernels.
TEST(LinkagePrefilterParallelEquivalenceTest, SignatureBoundsNeverUnderBound) {
  std::mt19937 rng(1234);
  std::uniform_int_distribution<int> len_dist(0, 14);
  // A narrow alphabet maximizes shared-character collisions (the hard
  // case for the histogram bounds); include digits and a non-alnum byte
  // to cover all three signature class families.
  const std::string alphabet = "abcde019-";
  std::uniform_int_distribution<size_t> char_dist(0, alphabet.size() - 1);
  auto random_token = [&]() {
    std::string t(static_cast<size_t>(len_dist(rng)), ' ');
    for (char& c : t) c = alphabet[char_dist(rng)];
    return t;
  };
  text::SimilarityScratch scratch;
  for (int iter = 0; iter < 2000; ++iter) {
    std::string x = random_token();
    std::string y = random_token();
    text::TokenSignature sx = text::MakeTokenSignature(x);
    text::TokenSignature sy = text::MakeTokenSignature(y);
    ASSERT_GE(text::JaroWinklerUpperBound(sx, sy),
              text::JaroWinklerSimilarity(x, y))
        << '"' << x << "\" vs \"" << y << '"';
  }
  // Monge-Elkan bound over random short token sequences.
  std::uniform_int_distribution<int> seq_dist(0, 5);
  for (int iter = 0; iter < 300; ++iter) {
    text::TokenInterner interner;
    std::vector<text::TokenId> a, b;
    for (int i = 0, n = seq_dist(rng); i < n; ++i) {
      a.push_back(interner.Intern(random_token()));
    }
    for (int i = 0, n = seq_dist(rng); i < n; ++i) {
      b.push_back(interner.Intern(random_token()));
    }
    std::vector<text::TokenSignature> signatures;
    for (text::TokenId id = 0; id < interner.size(); ++id) {
      signatures.push_back(text::MakeTokenSignature(interner.token(id)));
    }
    double truth = text::SymmetricMongeElkan(interner, a, b, scratch);
    double bound =
        text::SymmetricMongeElkanUpperBound(signatures, a, b, scratch);
    ASSERT_GE(bound, truth) << "iter " << iter;
  }
}

}  // namespace
}  // namespace bdi::linkage
