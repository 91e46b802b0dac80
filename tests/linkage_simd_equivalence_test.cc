// Bitwise-equivalence contract for the SIMD-batched matching path: every
// vector dispatch level of the signature bound kernels must produce
// exactly the scalar path's bits, and the batch APIs (ExtractBatch /
// ExtractBoundsBatch / ScoreBatch / ScoreUpperBoundBatch, the slab pass,
// and whole Linker runs) must produce exactly the single-pair path's
// bits — for all three scorers, serial and parallel. Named
// *ParallelEquivalence* so the tsan/asan equivalence ctest presets pick
// it up.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "bdi/common/cpu.h"
#include "bdi/linkage/batch.h"
#include "bdi/linkage/linkage.h"
#include "bdi/synth/world.h"
#include "bdi/text/interner.h"
#include "bdi/text/similarity.h"
#include "linkage_reference_matcher.h"

namespace bdi::linkage {
namespace {

/// Levels the running hardware can execute (always includes kScalar).
std::vector<cpu::SimdLevel> SupportedLevels() {
  std::vector<cpu::SimdLevel> levels = {cpu::SimdLevel::kScalar};
  if (cpu::DetectedSimdLevel() >= cpu::SimdLevel::kSse2) {
    levels.push_back(cpu::SimdLevel::kSse2);
  }
  if (cpu::DetectedSimdLevel() >= cpu::SimdLevel::kAvx2) {
    levels.push_back(cpu::SimdLevel::kAvx2);
  }
  return levels;
}

/// Restores the detected dispatch level when a test scope ends, so a
/// failing assertion cannot leak a pinned level into later tests.
struct SimdLevelGuard {
  ~SimdLevelGuard() { cpu::SetSimdLevel(cpu::DetectedSimdLevel()); }
};

// The signature bound kernels at every dispatch level must return the
// scalar path's exact bits. The fuzz corpus mixes short sparse tokens
// (which take the scalar mask-walk even at vector levels) with long
// dense tokens (past the vector cutover, so the SSE2/AVX2 reductions
// actually execute).
TEST(LinkageSimdParallelEquivalenceTest, BoundKernelsBitwiseAcrossLevels) {
  SimdLevelGuard guard;
  std::mt19937 rng(99);
  std::uniform_int_distribution<int> short_len(0, 8);
  std::uniform_int_distribution<int> long_len(16, 48);
  const std::string alphabet = "abcdefghijklmnopqrstuvwxyz019-.";
  std::uniform_int_distribution<size_t> char_dist(0, alphabet.size() - 1);
  auto random_token = [&](bool dense) {
    int n = dense ? long_len(rng) : short_len(rng);
    std::string t(static_cast<size_t>(n), ' ');
    for (char& c : t) c = alphabet[char_dist(rng)];
    return t;
  };
  std::vector<cpu::SimdLevel> levels = SupportedLevels();
  for (int iter = 0; iter < 2000; ++iter) {
    bool dense = (iter % 2) == 0;
    text::TokenSignature sx = text::MakeTokenSignature(random_token(dense));
    text::TokenSignature sy = text::MakeTokenSignature(random_token(dense));
    cpu::SetSimdLevel(cpu::SimdLevel::kScalar);
    size_t jaro_scalar = text::JaroMatchUpperBound(sx, sy);
    size_t edit_scalar = text::EditDistanceLowerBound(sx, sy);
    double jw_scalar = text::JaroWinklerUpperBound(sx, sy);
    double ned_scalar = text::NormalizedEditSimilarityUpperBound(sx, sy);
    for (cpu::SimdLevel level : levels) {
      cpu::SetSimdLevel(level);
      const char* name = cpu::SimdLevelName(level);
      // Integer bounds exactly; the double bounds are built from the same
      // integers, so EXPECT_EQ (not NEAR) is the contract.
      EXPECT_EQ(text::JaroMatchUpperBound(sx, sy), jaro_scalar) << name;
      EXPECT_EQ(text::EditDistanceLowerBound(sx, sy), edit_scalar) << name;
      EXPECT_EQ(text::JaroWinklerUpperBound(sx, sy), jw_scalar) << name;
      EXPECT_EQ(text::NormalizedEditSimilarityUpperBound(sx, sy), ned_scalar)
          << name;
    }
  }
}

// The Monge-Elkan bound over token sequences, same contract: every
// dispatch level returns the scalar bits. Each level gets a fresh
// scratch so nothing carried over can mask a divergence.
TEST(LinkageSimdParallelEquivalenceTest, MongeElkanBoundBitwiseAcrossLevels) {
  SimdLevelGuard guard;
  std::mt19937 rng(7);
  std::uniform_int_distribution<int> seq_len(0, 6);
  std::uniform_int_distribution<int> token_len(1, 24);
  const std::string alphabet = "abcdefgh0123-";
  std::uniform_int_distribution<size_t> char_dist(0, alphabet.size() - 1);
  auto random_token = [&]() {
    std::string t(static_cast<size_t>(token_len(rng)), ' ');
    for (char& c : t) c = alphabet[char_dist(rng)];
    return t;
  };
  std::vector<cpu::SimdLevel> levels = SupportedLevels();
  for (int iter = 0; iter < 300; ++iter) {
    text::TokenInterner interner;
    std::vector<text::TokenId> a, b;
    for (int i = 0, n = seq_len(rng); i < n; ++i) {
      a.push_back(interner.Intern(random_token()));
    }
    for (int i = 0, n = seq_len(rng); i < n; ++i) {
      b.push_back(interner.Intern(random_token()));
    }
    std::vector<text::TokenSignature> signatures;
    for (text::TokenId id = 0; id < interner.size(); ++id) {
      signatures.push_back(text::MakeTokenSignature(interner.token(id)));
    }
    cpu::SetSimdLevel(cpu::SimdLevel::kScalar);
    text::SimilarityScratch scalar_scratch;
    double scalar =
        text::SymmetricMongeElkanUpperBound(signatures, a, b, scalar_scratch);
    for (cpu::SimdLevel level : levels) {
      cpu::SetSimdLevel(level);
      text::SimilarityScratch scratch;
      EXPECT_EQ(
          text::SymmetricMongeElkanUpperBound(signatures, a, b, scratch),
          scalar)
          << cpu::SimdLevelName(level) << " iter " << iter;
    }
  }
}

synth::SyntheticWorld MakeWorld() {
  synth::WorldConfig config;
  config.seed = 23;
  config.num_entities = 150;
  config.num_sources = 12;
  return synth::GenerateWorld(config);
}

// Batch extraction must equal single-pair extraction lane for lane — for
// the bound features and the full features — and every scorer's batch
// forms must equal its single forms.
TEST(LinkageSimdParallelEquivalenceTest, BatchExtractionMatchesSinglePair) {
  synth::SyntheticWorld world = MakeWorld();
  Linker linker(&world.dataset, {});
  linker.Run();
  const FeatureExtractor& extractor = linker.extractor();
  const std::vector<CandidatePair>& candidates = linker.last_candidates();
  ASSERT_FALSE(candidates.empty());
  size_t n = std::min<size_t>(candidates.size(), 4096);
  std::vector<RecordIdx> a(n), b(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = candidates[i].a;
    b[i] = candidates[i].b;
  }
  // Separate scratches per side: a shared one would be fine (memo hits
  // replay exact bits), but separate ones prove the stronger claim.
  text::SimilarityScratch batch_scratch, single_scratch;
  std::vector<PairFeatures> batch_features(n), batch_bounds(n);
  extractor.ExtractBatch(a.data(), b.data(), n, batch_features.data(),
                         batch_scratch);
  extractor.ExtractBoundsBatch(a.data(), b.data(), n, batch_bounds.data(),
                               batch_scratch);
  LinearScorer linear;
  RuleScorer rule;
  LearnedScorer learned;
  const PairScorer* scorers[] = {&linear, &rule, &learned};
  for (size_t i = 0; i < n; ++i) {
    PairFeatures single = extractor.Extract(a[i], b[i], single_scratch);
    PairFeatures bounds = extractor.ExtractBounds(a[i], b[i], single_scratch);
    auto batch_f = batch_features[i].AsArray(), single_f = single.AsArray();
    auto batch_b = batch_bounds[i].AsArray(), single_b = bounds.AsArray();
    for (size_t k = 0; k < PairFeatures::kCount; ++k) {
      ASSERT_EQ(batch_f[k], single_f[k]) << "lane " << i << " feature " << k;
      ASSERT_EQ(batch_b[k], single_b[k]) << "lane " << i << " bound " << k;
    }
    for (const PairScorer* scorer : scorers) {
      double score_batch, bound_batch;
      scorer->ScoreBatch(&batch_features[i], 1, &score_batch);
      scorer->ScoreUpperBoundBatch(&batch_bounds[i], 1, &bound_batch);
      ASSERT_EQ(score_batch, scorer->Score(single))
          << scorer->name() << " lane " << i;
      ASSERT_EQ(bound_batch, scorer->ScoreUpperBound(bounds))
          << scorer->name() << " lane " << i;
    }
  }
}

// The slab scoring pass must write, slot for slot, the per-pair
// Extract + Score bits for every scorer — across tile boundaries and with
// one slab reused between calls of different sizes (warm scratch and
// memos must never leak into a score).
TEST(LinkageSimdParallelEquivalenceTest, SlabPathMatchesPerPair) {
  synth::SyntheticWorld world = MakeWorld();
  Linker linker(&world.dataset, {});
  linker.Run();
  const FeatureExtractor& extractor = linker.extractor();
  const std::vector<CandidatePair>& candidates = linker.last_candidates();
  // Past one 1024-lane tile, ending mid-tile.
  size_t n = std::min<size_t>(candidates.size(), 2500);
  ASSERT_GT(n, 1024u);
  LinearScorer linear;
  RuleScorer rule;
  LearnedScorer learned;
  const PairScorer* scorers[] = {&linear, &rule, &learned};
  CandidateSlab slab;
  text::SimilarityScratch scratch;
  for (const PairScorer* scorer : scorers) {
    std::vector<double> scores(n);
    size_t head = n / 3;
    ScoreCandidateSlab(extractor, *scorer, candidates.data(), head, slab,
                       scores.data());
    ScoreCandidateSlab(extractor, *scorer, candidates.data() + head,
                       n - head, slab, scores.data() + head);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(scores[i],
                scorer->Score(extractor.Extract(candidates[i].a,
                                                candidates[i].b, scratch)))
          << scorer->name() << " lane " << i;
    }
  }
}

// End-to-end: for every scorer, serial and with 8 threads, a full linkage
// run at every dispatch level must equal the reference matcher's result
// computed at the scalar level — the whole pipeline, not just the
// kernels, is dispatch-invariant and agrees with the per-pair loop.
TEST(LinkageSimdParallelEquivalenceTest, LinkageRunBitwiseAcrossLevels) {
  SimdLevelGuard guard;
  synth::SyntheticWorld world = MakeWorld();
  for (ScorerKind kind :
       {ScorerKind::kRule, ScorerKind::kLinear, ScorerKind::kLearned}) {
    LinkerConfig config;
    config.scorer = kind;
    cpu::SetSimdLevel(cpu::SimdLevel::kScalar);
    Linker reference_linker(&world.dataset, config);
    reference_linker.Run();
    LinkageResult reference =
        ReferenceMatch(reference_linker, world.dataset.num_records());
    for (cpu::SimdLevel level : SupportedLevels()) {
      cpu::SetSimdLevel(level);
      for (size_t threads : {1u, 8u}) {
        SCOPED_TRACE(std::string(cpu::SimdLevelName(level)) + ", " +
                     std::to_string(threads) + " threads, scorer " +
                     reference_linker.scorer().name());
        config.num_threads = threads;
        Linker linker(&world.dataset, config);
        ExpectSameLinkage(reference, linker.Run());
      }
    }
  }
}

}  // namespace
}  // namespace bdi::linkage
