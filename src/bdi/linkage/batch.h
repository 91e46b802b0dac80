#ifndef BDI_LINKAGE_BATCH_H_
#define BDI_LINKAGE_BATCH_H_

#include <vector>

#include "bdi/linkage/blocking.h"
#include "bdi/linkage/matcher.h"
#include "bdi/text/similarity.h"

namespace bdi::linkage {

/// Structure-of-arrays working set for one chunk of candidate pairs — the
/// matching stage's cache-conscious slab. A worker fills the lane arrays
/// for a tile of its chunk and runs one kernel pass over every lane, so
/// each pass streams through contiguous memory instead of ping-ponging
/// between per-pair state. Chunks are processed in fixed-size tiles (see
/// kSlabTileLanes in batch.cc) so the lane arrays stay cache-resident no
/// matter how large the chunk is.
///
/// Ownership follows the SimilarityScratch rule (DESIGN.md): one slab per
/// worker, reused across chunks; every buffer is grow-only, so
/// steady-state chunks allocate nothing. A slab must never be shared
/// between concurrently running workers.
struct CandidateSlab {
  /// Lane arrays: record refs of the tile's pairs, index-aligned.
  std::vector<RecordIdx> a;
  std::vector<RecordIdx> b;
  /// Per-lane feature slots: the bound features in a bound pass, the full
  /// features in a scoring pass.
  std::vector<PairFeatures> features;
  /// The one grow-only kernel scratch shared by every lane in the slab.
  text::SimilarityScratch scratch;
  /// Gather staging for schedule-ordered scoring (the progressive
  /// scheduler): pairs copied into schedule order and their scores,
  /// before the caller scatters them back to original slots.
  std::vector<CandidatePair> gather;
  std::vector<double> gather_scores;
};

/// Scores `n` candidate pairs through the slab: fills `slab`'s lanes from
/// `pairs` tile by tile, runs the full kernel stack over every lane, and
/// writes each pair's score into `scores[0..n)`. Bitwise identical in
/// every slot to `scorer.Score(extractor.Extract(a, b, scratch))` per
/// pair, for every scorer: the batch kernels run the same per-pair
/// operations in the same order, only grouped into passes.
void ScoreCandidateSlab(const FeatureExtractor& extractor,
                        const PairScorer& scorer, const CandidatePair* pairs,
                        size_t n, CandidateSlab& slab, double* scores);

/// The slab bound pass: fills `bounds[0..n)` with the scorer's cheap
/// score upper bound for each pair, via tiled ExtractBoundsBatch +
/// ScoreUpperBoundBatch passes, without touching the full kernels. Each
/// bound is bitwise `scorer.ScoreUpperBound(extractor.ExtractBounds(...))`
/// for that pair at every SIMD dispatch level; the progressive scheduler
/// (progressive.h) uses these to skip and rank candidates before spending
/// its comparison budget.
void BoundCandidateSlab(const FeatureExtractor& extractor,
                        const PairScorer& scorer, const CandidatePair* pairs,
                        size_t n, CandidateSlab& slab, double* bounds);

}  // namespace bdi::linkage

#endif  // BDI_LINKAGE_BATCH_H_
