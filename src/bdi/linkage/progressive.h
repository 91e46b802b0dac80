#ifndef BDI_LINKAGE_PROGRESSIVE_H_
#define BDI_LINKAGE_PROGRESSIVE_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "bdi/common/result.h"
#include "bdi/linkage/blocking.h"
#include "bdi/linkage/matcher.h"

namespace bdi::linkage {

/// Bound-ranked comparison scheduling: the progressive (pay-as-you-go)
/// matching stage. Every candidate pair gets a cheap score upper bound
/// from the interned token evidence (FeatureExtractor::ExtractBounds and
/// PairScorer::ScoreUpperBound); the pairs that could clear the scorer's
/// threshold are then compared in deterministic bound-descending tiers
/// until a comparison budget runs out. Early comparisons concentrate on
/// the highest-value pairs, so the match set grows steeply at first and
/// quality is *anytime*: stopping at a fraction of the comparisons keeps
/// most of the recall (the recall-vs-comparisons curve in
/// BENCH_linkage_quality.json). This is the only matcher: Linker::Run and
/// Linker::AddNewRecords call it on every batch.
/// With the budget unlimited, every pair whose bound can reach the
/// threshold is compared, and the match set is bitwise the one a per-pair
/// Extract + Score loop over all candidates finds (the reference matcher
/// the equivalence tests compare against) — scheduling changes order,
/// never scores.

/// Number of quantized scorer-bound tiers the scheduler sorts survivors
/// into. Within a tier, pairs keep candidate order — deliberately: the
/// candidate stream interleaves the blocks' entities, so a bound plateau
/// spreads its budget across distinct clusters instead of sinking into
/// one large cluster's quadratic interior (finer similarity-based
/// ordering was measured to *hurt* anytime recall for exactly that
/// reason — see DESIGN.md). Tiering is what keeps the schedule
/// reproducible: the bound is bitwise deterministic per pair, tier
/// membership depends only on its value, and tie order is candidate
/// order — so the schedule is a pure function of the candidate list,
/// never of thread count or chunk boundaries. 256 tiers over [0, 1]
/// also cap the scheduling cost at one counting sort, O(n + tiers),
/// instead of O(n log n).
inline constexpr size_t kProgressiveTiers = 256;

/// Tier index of a score upper bound: 0 holds the highest bounds
/// (>= 1.0), kProgressiveTiers - 1 the lowest (<= 0). Monotone
/// non-increasing in the bound, so ascending tier order is
/// bound-descending order.
size_t ProgressiveTierOf(double bound);

/// First budgeted scheduling round, in pairs. Matching feeds transitive
/// clustering, so a budgeted run prunes comparisons whose endpoints the
/// matches found so far already connect — but the pruning state only
/// updates *between* rounds, so a round is pure waste past the point
/// where its own matches would have pruned its later pairs. Small rounds
/// keep that waste bounded: the sweep on the E7 noisy world moved anytime
/// recall at a 50% budget from 87% of full recall (rounds up to 4096) to
/// 96% (8..64). Rounds this size run serially per round — acceptable
/// because budgeted runs are the latency-sensitive mode and the kernel
/// cost the budget limits dwarfs the round bookkeeping. Geometric growth:
/// 8, 16, 32, capped at kProgressiveRoundPairsMax.
inline constexpr size_t kProgressiveRoundPairs = 8;

/// Cap of the geometric round growth (see kProgressiveRoundPairs).
inline constexpr size_t kProgressiveRoundPairsMax = 64;

/// Resolves a LinkerConfig::comparison_budget spec against the number of
/// full-kernel comparisons the unbudgeted run would make (`num_payable`):
/// 0 means unlimited; a value in (0, 1) is a fraction of `num_payable`,
/// rounded up; a value >= 1 is an absolute comparison count, rounded
/// down. Never returns more than `num_payable`.
size_t ResolveComparisonBudget(double comparison_budget, size_t num_payable);

/// Parses a CLI `--budget` spec. Grammar: a non-negative integer is an
/// absolute comparison count ("25000"; "0" means unlimited), a percentage
/// in (0, 100] is a fraction of the comparisons the unbudgeted run would
/// make ("25%", "12.5%"; "100%" means unlimited). Anything else —
/// negative, zero percent, above 100%, trailing garbage — is an
/// InvalidArgument naming the offending spec. The returned double obeys
/// the ResolveComparisonBudget encoding.
Result<double> ParseComparisonBudget(const std::string& spec);

/// What one progressive scheduling run did (diagnostics and benches; the
/// same numbers feed the bdi.linkage.progressive.* metrics).
struct ProgressiveStats {
  /// Candidates whose score upper bound could not reach the threshold —
  /// rejected without the full kernels (the prefilter).
  size_t num_skipped = 0;
  /// Candidates that survived the bound pass and were eligible for full
  /// comparison.
  size_t num_survivors = 0;
  /// Distinct non-empty scheduling tiers the survivors occupied (a tier
  /// is a quantized scorer-bound bucket; more occupied tiers = finer
  /// ranking).
  size_t num_tiers = 0;
  /// The resolved comparison budget (<= num_survivors).
  size_t budget = 0;
  /// Full-kernel comparisons actually executed (== budget unless there
  /// were fewer survivors than budget, or closure pruning drained the
  /// stream first).
  size_t num_scheduled = 0;
  /// Survivors pruned without cost during a budgeted run because earlier
  /// matches already connected their endpoints transitively (their
  /// comparison could not change the clustering; 0 when unbudgeted).
  size_t num_closure_pruned = 0;
  /// Survivors left uncompared because the budget ran out.
  size_t num_deferred = 0;
  /// True when the budget stopped the run before every survivor was
  /// compared (num_deferred > 0).
  bool budget_stopped = false;
  /// True when the wall-clock deadline (`budget_ms`) stopped the run
  /// before the comparison budget or the survivor stream was exhausted.
  bool deadline_stopped = false;
  /// Matches among the scheduled comparisons (score >= threshold).
  size_t num_matches = 0;
};

/// Scores `pairs[0..n)` under the progressive scheduler. Writes one score
/// per pair into `scores[0..n)` and sets `scored[i]` to 1 when that slot
/// is authoritative: prefilter-skipped pairs record their bound (below
/// threshold by construction) and scheduled pairs record their true
/// kernel score. Budget-deferred and closure-pruned pairs get
/// `scored[i] == 0` (their score slot holds no score — the caller must
/// not read it); a closure-pruned pair's endpoints are already connected by
/// found matches, so dropping it cannot change the transitive
/// clustering. Matches are the scored slots at or above the scorer's
/// threshold; with an unlimited budget every slot is scored, nothing is
/// pruned, and the match slots are bitwise the per-pair
/// `scorer.Score(extractor.Extract(...))` values, for every scorer and
/// thread count (the bound is sound, so a skipped pair could never have
/// matched). Under any budget the scored
/// set — and so the match set — is a subset of the scored set at every
/// larger budget.
/// `comparison_budget` follows the ResolveComparisonBudget encoding;
/// `budget_ms` (0 = no deadline) is a wall-clock deadline measured from
/// entry and checked at every scheduling-round boundary — when it
/// expires, the remaining survivors are deferred exactly as if a smaller
/// comparison budget had cut the schedule there, so a deadline-stopped
/// match set is always *some* prefix of the deterministic schedule
/// (which comparisons ran depends on wall time, but never their scores);
/// `num_threads` bounds
/// the parallel bound and kernel passes (0 = shared executor pool, 1 =
/// serial) — the output is identical for every value.
ProgressiveStats ScorePairsProgressive(const FeatureExtractor& extractor,
                                       const PairScorer& scorer,
                                       const CandidatePair* pairs, size_t n,
                                       double comparison_budget,
                                       double budget_ms, size_t num_threads,
                                       double* scores, uint8_t* scored);

}  // namespace bdi::linkage

#endif  // BDI_LINKAGE_PROGRESSIVE_H_
