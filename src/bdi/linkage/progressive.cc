#include "bdi/linkage/progressive.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <memory>
#include <mutex>
#include <vector>

#include "bdi/common/executor.h"
#include "bdi/common/metrics.h"
#include "bdi/common/timer.h"
#include "bdi/text/similarity.h"

namespace bdi::linkage {

namespace {

metrics::Counter& TiersCounter() {
  static metrics::Counter* counter = metrics::Registry::Get().RegisterCounter(
      "bdi.linkage.progressive.tiers");
  return *counter;
}

metrics::Counter& BudgetSpentCounter() {
  static metrics::Counter* counter = metrics::Registry::Get().RegisterCounter(
      "bdi.linkage.progressive.budget_spent");
  return *counter;
}

metrics::Counter& BudgetStoppedCounter() {
  static metrics::Counter* counter = metrics::Registry::Get().RegisterCounter(
      "bdi.linkage.progressive.budget_stopped");
  return *counter;
}

metrics::Counter& DeadlineStoppedCounter() {
  static metrics::Counter* counter = metrics::Registry::Get().RegisterCounter(
      "bdi.linkage.progressive.deadline_stopped");
  return *counter;
}

metrics::Counter& MatchesFoundCounter() {
  static metrics::Counter* counter = metrics::Registry::Get().RegisterCounter(
      "bdi.linkage.progressive.matches_found");
  return *counter;
}

metrics::Counter& ClosurePrunedCounter() {
  static metrics::Counter* counter = metrics::Registry::Get().RegisterCounter(
      "bdi.linkage.progressive.closure_pruned");
  return *counter;
}

/// Matches vs comparisons: for every match the scheduler finds, the
/// fraction of the scheduled comparison stream already spent when it
/// surfaced. Mass near zero means the bound ranking front-loads the
/// matches (good anytime behavior); mass near 1.0 means matches arrive
/// late and a budget would cost recall.
metrics::Histogram& MatchPositionHistogram() {
  static metrics::Histogram* histogram =
      metrics::Registry::Get().RegisterHistogram(
          "bdi.linkage.progressive.match_position",
          {0.05, 0.1, 0.25, 0.5, 0.75, 0.9});
  return *histogram;
}

metrics::Counter& PrefilterEvaluatedCounter() {
  static metrics::Counter* counter = metrics::Registry::Get().RegisterCounter(
      "bdi.linkage.matching.prefilter.evaluated");
  return *counter;
}

metrics::Counter& PrefilterSkippedCounter() {
  static metrics::Counter* counter = metrics::Registry::Get().RegisterCounter(
      "bdi.linkage.matching.prefilter.skipped");
  return *counter;
}

/// Gap between the prefilter's score bound and the true score, observed
/// for every candidate the scheduler compared (both values exist only
/// there). Small gaps mean tight bounds; mass in the overflow bucket
/// means the bound is too loose to prune near the threshold.
metrics::Histogram& PrefilterBoundGapHistogram() {
  static metrics::Histogram* histogram =
      metrics::Registry::Get().RegisterHistogram(
          "bdi.linkage.matching.prefilter.bound_gap",
          {0.05, 0.1, 0.2, 0.3, 0.5, 1.0});
  return *histogram;
}

/// Pairs per parallel chunk: small enough that skewed blocks still
/// balance across workers, large enough to amortize a scratch checkout.
constexpr size_t kMinScoreChunk = 64;

/// Mutex-guarded checkout pool of SimilarityScratch shared by the workers
/// of one scheduling run. A worker claiming its next chunk reuses a
/// scratch whose buffers and Jaro-Winkler memo are already warm — which
/// matters most to budgeted runs, whose rounds of 8-64 pairs would
/// otherwise start every chunk with an empty memo. Scores never depend on
/// scratch state, so reuse cannot change results. The mutex guards only
/// the checkout and return, never the scoring.
class ScratchPool {
 public:
  /// RAII checkout: acquires a scratch (reusing a returned one when
  /// available) on construction, returns it on destruction.
  class Lease {
   public:
    explicit Lease(ScratchPool& pool)
        : pool_(pool), scratch_(pool.Acquire()) {}
    ~Lease() { pool_.Release(std::move(scratch_)); }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    text::SimilarityScratch& operator*() const { return *scratch_; }

   private:
    ScratchPool& pool_;
    std::unique_ptr<text::SimilarityScratch> scratch_;
  };

 private:
  std::unique_ptr<text::SimilarityScratch> Acquire() {
    std::lock_guard<std::mutex> lock(mu_);
    if (free_.empty()) return std::make_unique<text::SimilarityScratch>();
    std::unique_ptr<text::SimilarityScratch> scratch =
        std::move(free_.back());
    free_.pop_back();
    return scratch;
  }

  void Release(std::unique_ptr<text::SimilarityScratch> scratch) {
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(std::move(scratch));
  }

  std::mutex mu_;
  std::vector<std::unique_ptr<text::SimilarityScratch>> free_;
};

}  // namespace

size_t ProgressiveTierOf(double bound) {
  if (!(bound < 1.0)) return 0;  // >= 1.0 and NaN land in the top tier
  if (bound <= 0.0) return kProgressiveTiers - 1;
  size_t tier = static_cast<size_t>((1.0 - bound) *
                                    static_cast<double>(kProgressiveTiers));
  return std::min(tier, kProgressiveTiers - 1);
}

size_t ResolveComparisonBudget(double comparison_budget, size_t num_payable) {
  if (comparison_budget <= 0.0) return num_payable;
  if (comparison_budget < 1.0) {
    double scaled =
        std::ceil(comparison_budget * static_cast<double>(num_payable));
    return std::min(num_payable, static_cast<size_t>(scaled));
  }
  if (comparison_budget >= static_cast<double>(num_payable)) {
    return num_payable;
  }
  return static_cast<size_t>(comparison_budget);
}

Result<double> ParseComparisonBudget(const std::string& spec) {
  auto invalid = [&spec](const char* why) {
    return Status::InvalidArgument("--budget '" + spec + "': " + why +
                                   " (expected a comparison count or a "
                                   "percentage like '25%')");
  };
  if (spec.empty()) return invalid("empty spec");
  bool percent = spec.back() == '%';
  std::string number = percent ? spec.substr(0, spec.size() - 1) : spec;
  if (number.empty()) return invalid("missing number");
  errno = 0;
  char* end = nullptr;
  double value = std::strtod(number.c_str(), &end);
  if (end != number.c_str() + number.size() || errno == ERANGE ||
      !std::isfinite(value)) {
    return invalid("not a number");
  }
  if (percent) {
    if (value <= 0.0 || value > 100.0) {
      return invalid("percentage must be in (0, 100]");
    }
    if (value == 100.0) return 0.0;  // 100% spends everything: unlimited
    return value / 100.0;
  }
  if (value < 0.0) return invalid("count must be non-negative");
  if (value != std::floor(value)) {
    return invalid("absolute count must be an integer");
  }
  return value;  // 0 = unlimited, >= 1 = absolute count
}

ProgressiveStats ScorePairsProgressive(const FeatureExtractor& extractor,
                                       const PairScorer& scorer,
                                       const CandidatePair* pairs, size_t n,
                                       double comparison_budget,
                                       double budget_ms, size_t num_threads,
                                       double* scores, uint8_t* scored) {
  // The deadline clock starts at entry so the bound pass and scheduling
  // count against it — a serving batch's latency budget covers the whole
  // call, not just the kernel rounds.
  WallTimer deadline_timer;
  ProgressiveStats stats;
  if (n == 0) return stats;
  const double threshold = scorer.threshold();
  const bool metrics_on = metrics::Enabled();
  ScratchPool scratch_pool;

  // Pass 1 (parallel): cheap score upper bounds for every candidate,
  // staged in `scores` until pass 3 overwrites a compared pair's slot with
  // its true score. Each is a pure per-pair value written to its own
  // slot, so chunking cannot affect the result.
  ParallelForRanges(
      n,
      [&](size_t begin, size_t end) {
        ScratchPool::Lease scratch(scratch_pool);
        for (size_t i = begin; i < end; ++i) {
          scores[i] = scorer.ScoreUpperBound(
              extractor.ExtractBounds(pairs[i].a, pairs[i].b, *scratch));
        }
      },
      num_threads, kMinScoreChunk);

  // Pass 2 (serial, O(n + tiers)): deterministic schedule. Survivors are
  // counting-sorted into quantized bound tiers, and within a tier keep
  // candidate order. Candidate order interleaves the blocks' entities, so
  // within a bound plateau the budget spreads across distinct clusters
  // instead of sinking into one large cluster's quadratic interior — the
  // spread that makes the pairwise recall curve steep (finishing a
  // k-record entity earns C(k,2) truth pairs; the redundant interior is
  // reclaimed by closure pruning below, not by comparison order). The
  // schedule is a pure function of per-pair values, hence identical for
  // every thread count, and a budget always cuts a *prefix* of it — which
  // is what makes the match set at budget B a subset of the match set at
  // any larger budget.
  auto bucket_of = [&](size_t i) { return ProgressiveTierOf(scores[i]); };
  std::vector<uint32_t> bucket_counts(kProgressiveTiers, 0);
  for (size_t i = 0; i < n; ++i) {
    // The prefilter: the bound is sound (>= the true score, and the slack
    // absorbs floating-point grouping differences), so a pair below it
    // can never match; its slot keeps the bound (below threshold by
    // construction) and the full kernels never run.
    scored[i] = scores[i] + kPrefilterSlack < threshold ? 1 : 0;
    if (scored[i] != 0) {
      ++stats.num_skipped;
    } else {
      ++bucket_counts[bucket_of(i)];
    }
  }
  stats.num_survivors = n - stats.num_skipped;
  std::vector<size_t> bucket_offsets(kProgressiveTiers, 0);
  size_t offset = 0;
  for (size_t t = 0; t < kProgressiveTiers; ++t) {
    bucket_offsets[t] = offset;
    offset += bucket_counts[t];
    if (bucket_counts[t] > 0) ++stats.num_tiers;
  }
  std::vector<uint32_t> schedule(stats.num_survivors);
  for (size_t i = 0; i < n; ++i) {
    if (scored[i] != 0) continue;
    schedule[bucket_offsets[bucket_of(i)]++] = static_cast<uint32_t>(i);
  }

  stats.budget = ResolveComparisonBudget(comparison_budget,
                                         stats.num_survivors);

  // Helper shared by both pass-3 shapes: full kernels over
  // schedule[begin..end), each score written to its pair's original slot
  // (replacing the staged bound).
  auto score_range = [&](size_t begin, size_t end) {
    ScratchPool::Lease scratch(scratch_pool);
    for (size_t k = begin; k < end; ++k) {
      size_t lane = schedule[k];
      double score = scorer.Score(
          extractor.Extract(pairs[lane].a, pairs[lane].b, *scratch));
      if (metrics_on) {
        PrefilterBoundGapHistogram().Observe(scores[lane] - score);
      }
      scores[lane] = score;
      scored[lane] = 1;
    }
  };

  if (stats.budget >= stats.num_survivors && budget_ms <= 0.0) {
    // Pass 3, unbudgeted: every survivor gets its full kernels, one
    // parallel sweep. Order is irrelevant to the output — all slots are
    // scored — so the result does not depend on the thread count.
    ParallelForRanges(stats.num_survivors, score_range, num_threads,
                      kMinScoreChunk);
    stats.num_scheduled = stats.num_survivors;
  } else {
    // Pass 3, budgeted: rounds of full kernels in schedule order with
    // online transitive-closure pruning. Matching feeds transitive
    // clustering, so once two records are connected by found matches,
    // comparing them again buys nothing — and the bound ranking
    // front-loads exactly those dense intra-entity plateaus. After each
    // round the found matches update a union-find, and already-connected
    // pairs are pruned from the stream without spending budget, so the
    // budget flows to comparisons that can still merge clusters.
    // Determinism: per-pair scores are thread-count-independent, so the
    // union-find state after each round — and hence every round's
    // composition — is too. A smaller budget truncates the final round's
    // prefix and stops, so its scored set stays a subset of any larger
    // budget's.
    RecordIdx max_record = 0;
    for (size_t k = 0; k < stats.num_survivors; ++k) {
      const CandidatePair& p = pairs[schedule[k]];
      max_record = std::max({max_record, p.a, p.b});
    }
    std::vector<uint32_t> parent(static_cast<size_t>(max_record) + 1);
    for (size_t r = 0; r < parent.size(); ++r) {
      parent[r] = static_cast<uint32_t>(r);
    }
    auto find = [&](uint32_t r) {
      while (parent[r] != r) {
        parent[r] = parent[parent[r]];
        r = parent[r];
      }
      return r;
    };
    std::vector<uint32_t> round;
    size_t cursor = 0;
    size_t spent = 0;
    size_t round_pairs = kProgressiveRoundPairs;
    while (spent < stats.budget && cursor < stats.num_survivors) {
      // Wall-clock deadline, checked at round boundaries only: a round in
      // flight always completes, so the scored set is a whole-round prefix
      // of the deterministic schedule.
      if (budget_ms > 0.0 && deadline_timer.ElapsedMillis() >= budget_ms) {
        stats.deadline_stopped = true;
        break;
      }
      round.clear();
      size_t round_limit = std::min(round_pairs, stats.budget - spent);
      round_pairs = std::min(round_pairs * 2, kProgressiveRoundPairsMax);
      while (round.size() < round_limit && cursor < stats.num_survivors) {
        uint32_t lane = schedule[cursor++];
        uint32_t ra = find(static_cast<uint32_t>(pairs[lane].a));
        uint32_t rb = find(static_cast<uint32_t>(pairs[lane].b));
        if (ra == rb) {
          ++stats.num_closure_pruned;
          continue;
        }
        round.push_back(lane);
      }
      if (round.empty()) break;
      // Compact the round back into the schedule prefix so score_range
      // sees a contiguous range; positions before `spent` are already
      // scored and never revisited.
      std::copy(round.begin(), round.end(), schedule.begin() + spent);
      size_t round_begin = spent;
      size_t round_end = spent + round.size();
      ParallelForRanges(
          round.size(),
          [&](size_t begin, size_t end) {
            score_range(round_begin + begin, round_begin + end);
          },
          num_threads, kMinScoreChunk);
      for (size_t k = round_begin; k < round_end; ++k) {
        uint32_t lane = schedule[k];
        if (scores[lane] >= threshold) {
          uint32_t ra = find(static_cast<uint32_t>(pairs[lane].a));
          uint32_t rb = find(static_cast<uint32_t>(pairs[lane].b));
          if (ra != rb) parent[ra] = rb;
        }
      }
      spent = round_end;
    }
    stats.num_scheduled = spent;
  }
  stats.num_deferred =
      stats.num_survivors - stats.num_scheduled - stats.num_closure_pruned;
  stats.budget_stopped = stats.num_deferred > 0 && !stats.deadline_stopped;

  // Pass 4 (serial): anytime accounting — where in the comparison stream
  // the matches surfaced.
  for (size_t k = 0; k < stats.num_scheduled; ++k) {
    size_t lane = schedule[k];
    if (scores[lane] >= threshold) {
      ++stats.num_matches;
      if (metrics_on) {
        MatchPositionHistogram().Observe(
            static_cast<double>(k + 1) /
            static_cast<double>(stats.num_scheduled));
      }
    }
  }

  if (metrics_on) {
    TiersCounter().Add(stats.num_tiers);
    BudgetSpentCounter().Add(stats.num_scheduled);
    if (stats.budget_stopped) BudgetStoppedCounter().Add();
    if (stats.deadline_stopped) DeadlineStoppedCounter().Add();
    MatchesFoundCounter().Add(stats.num_matches);
    ClosurePrunedCounter().Add(stats.num_closure_pruned);
    PrefilterEvaluatedCounter().Add(n);
    PrefilterSkippedCounter().Add(stats.num_skipped);
  }
  return stats;
}

}  // namespace bdi::linkage
