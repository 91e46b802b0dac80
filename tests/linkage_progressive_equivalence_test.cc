// Contracts of the progressive (budget-aware) matching scheduler:
// with the budget unlimited, however it is spelled, it must reproduce the
// reference matcher's bits (linkage_reference_matcher.h); under any
// budget its match set must be a deterministic subset that only grows
// with the budget; and the anytime recall curve must be non-decreasing
// in comparisons spent. Named *ParallelEquivalence* so the tsan/asan
// equivalence ctest presets pick it up.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bdi/linkage/linkage.h"
#include "bdi/linkage/progressive.h"
#include "bdi/synth/world.h"
#include "linkage_reference_matcher.h"

namespace bdi::linkage {
namespace {

synth::SyntheticWorld MakeWorld() {
  synth::WorldConfig config;
  config.seed = 23;
  config.num_entities = 150;
  config.num_sources = 12;
  return synth::GenerateWorld(config);
}

LinkageResult RunProgressive(const synth::SyntheticWorld& world,
                             ScorerKind scorer, size_t num_threads,
                             double budget) {
  LinkerConfig config;
  config.scorer = scorer;
  config.num_threads = num_threads;
  config.comparison_budget = budget;
  Linker linker(&world.dataset, config);
  return linker.Run();
}

// Unlimited budget: the scheduler reorders comparisons but every
// prefilter survivor is still scored, so the result must be bitwise the
// reference matcher's — for every spelling of "unlimited" (0, "100%", an
// absolute count at least the survivor count), serial and with the
// scratch pool exercised by 8 threads.
TEST(LinkageProgressiveParallelEquivalenceTest, UnlimitedMatchesSlabPath) {
  synth::SyntheticWorld world = MakeWorld();
  for (double budget : {0.0, ParseComparisonBudget("100%").value(), 1e12}) {
    for (size_t threads : {1u, 8u}) {
      SCOPED_TRACE("budget " + std::to_string(budget) + ", " +
                   std::to_string(threads) + " threads");
      LinkerConfig config;
      config.num_threads = threads;
      config.comparison_budget = budget;
      LinkageResult result = RunAgainstReference(world.dataset, config);
      EXPECT_EQ(result.num_deferred, 0u);
      EXPECT_EQ(result.num_scheduled,
                result.num_candidates - result.num_prefiltered);
    }
  }
}

// A budgeted schedule is a pure function of the candidate list: the full
// result (matches, scores, clusters) must be identical for every thread
// count.
TEST(LinkageProgressiveParallelEquivalenceTest, BudgetedDeterministicAcrossThreads) {
  synth::SyntheticWorld world = MakeWorld();
  for (double budget : {0.25, 0.6}) {
    LinkageResult serial =
        RunProgressive(world, ScorerKind::kRule, 1, budget);
    ExpectSameLinkage(serial,
                      RunProgressive(world, ScorerKind::kRule, 2, budget));
    ExpectSameLinkage(serial,
                      RunProgressive(world, ScorerKind::kRule, 8, budget));
  }
}

std::set<std::pair<RecordIdx, RecordIdx>> MatchSet(const LinkageResult& r) {
  std::set<std::pair<RecordIdx, RecordIdx>> set;
  for (const ScoredPair& match : r.matches) {
    set.emplace(match.pair.a, match.pair.b);
  }
  return set;
}

// Budget monotonicity: a budget cuts a prefix of the fixed schedule, so
// the match set at budget B must be a subset of the match set at every
// larger budget.
TEST(LinkageProgressiveParallelEquivalenceTest, MatchSetMonotoneInBudget) {
  synth::SyntheticWorld world = MakeWorld();
  std::set<std::pair<RecordIdx, RecordIdx>> previous;
  for (double budget : {0.1, 0.25, 0.5, 0.75, 0.0}) {
    std::set<std::pair<RecordIdx, RecordIdx>> matches =
        MatchSet(RunProgressive(world, ScorerKind::kRule, 4, budget));
    for (const auto& pair : previous) {
      EXPECT_TRUE(matches.count(pair))
          << "match (" << pair.first << "," << pair.second
          << ") lost when the budget grew to " << budget;
    }
    EXPECT_GE(matches.size(), previous.size());
    previous = std::move(matches);
  }
}

// The anytime contract the benches report: as the budget grows, both the
// comparisons spent and the pairwise recall against the synthetic truth
// are non-decreasing.
TEST(LinkageProgressiveParallelEquivalenceTest, RecallCurveNonDecreasing) {
  synth::SyntheticWorld world = MakeWorld();
  size_t previous_comparisons = 0;
  double previous_recall = 0.0;
  for (double budget : {0.1, 0.25, 0.5, 0.0}) {
    LinkageResult result = RunProgressive(world, ScorerKind::kRule, 4, budget);
    LinkageQuality quality = EvaluateClusters(
        result.clusters.label_of_record, world.truth.entity_of_record);
    EXPECT_GE(result.num_scheduled, previous_comparisons) << budget;
    EXPECT_GE(quality.recall, previous_recall) << budget;
    previous_comparisons = result.num_scheduled;
    previous_recall = quality.recall;
  }
  // The full-budget run defers nothing.
  EXPECT_GT(previous_recall, 0.5);
}

// Deferral accounting: an unbudgeted run defers nothing and schedules
// every survivor; a fractional budget schedules at most its share of
// them (closure pruning can only shrink the spend further); a tiny
// absolute budget leaves pairs deferred — a handful of matches cannot
// connect enough of the world for pruning to drain the stream.
TEST(LinkageProgressiveParallelEquivalenceTest, DeferralAccounting) {
  synth::SyntheticWorld world = MakeWorld();
  LinkageResult full = RunProgressive(world, ScorerKind::kRule, 1, 0.0);
  EXPECT_EQ(full.num_deferred, 0u);
  // full.num_scheduled == the survivor count, so the resolved 25% budget
  // is exactly ceil(num_scheduled / 4).
  LinkageResult quarter = RunProgressive(world, ScorerKind::kRule, 1, 0.25);
  EXPECT_LE(quarter.num_scheduled, (full.num_scheduled + 3) / 4);
  EXPECT_LT(quarter.num_scheduled, full.num_scheduled);
  LinkageResult ten = RunProgressive(world, ScorerKind::kRule, 1, 10.0);
  EXPECT_LE(ten.num_scheduled, 10u);
  EXPECT_GT(ten.num_deferred, 0u);
}

TEST(ProgressiveTierTest, TierOrderIsBoundDescending) {
  EXPECT_EQ(ProgressiveTierOf(1.5), 0u);
  EXPECT_EQ(ProgressiveTierOf(1.0), 0u);
  EXPECT_EQ(ProgressiveTierOf(0.0), kProgressiveTiers - 1);
  EXPECT_EQ(ProgressiveTierOf(-0.5), kProgressiveTiers - 1);
  double previous = ProgressiveTierOf(1.0);
  for (double bound = 0.999; bound > 0.0; bound -= 0.001) {
    double tier = ProgressiveTierOf(bound);
    EXPECT_GE(tier, previous) << bound;
    EXPECT_LT(tier, kProgressiveTiers) << bound;
    previous = tier;
  }
}

TEST(ProgressiveBudgetTest, ResolveEncodings) {
  EXPECT_EQ(ResolveComparisonBudget(0.0, 1000), 1000u);    // unlimited
  EXPECT_EQ(ResolveComparisonBudget(-1.0, 1000), 1000u);   // unlimited
  EXPECT_EQ(ResolveComparisonBudget(0.25, 1000), 250u);    // fraction
  EXPECT_EQ(ResolveComparisonBudget(0.0001, 1000), 1u);    // ceil, not 0
  EXPECT_EQ(ResolveComparisonBudget(500.0, 1000), 500u);   // absolute
  EXPECT_EQ(ResolveComparisonBudget(5000.0, 1000), 1000u); // clamped
  EXPECT_EQ(ResolveComparisonBudget(0.5, 0), 0u);
}

TEST(ProgressiveBudgetTest, ParseAcceptsCountsAndPercentages) {
  EXPECT_EQ(ParseComparisonBudget("0").value(), 0.0);
  EXPECT_EQ(ParseComparisonBudget("25000").value(), 25000.0);
  EXPECT_EQ(ParseComparisonBudget("25%").value(), 0.25);
  EXPECT_EQ(ParseComparisonBudget("12.5%").value(), 0.125);
  EXPECT_EQ(ParseComparisonBudget("100%").value(), 0.0);  // unlimited
}

TEST(ProgressiveBudgetTest, ParseRejectsMalformedSpecs) {
  for (const char* spec : {"", "%", "-1", "-5%", "0%", "101%", "abc", "10x",
                           "1e999", "2.5", "nan", "inf%"}) {
    EXPECT_FALSE(ParseComparisonBudget(spec).ok()) << spec;
  }
}

}  // namespace
}  // namespace bdi::linkage
