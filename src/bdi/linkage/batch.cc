#include "bdi/linkage/batch.h"

#include <algorithm>

#include "bdi/common/cpu.h"
#include "bdi/common/metrics.h"

namespace bdi::linkage {

namespace {

metrics::Counter& SlabsCounter() {
  static metrics::Counter* counter = metrics::Registry::Get().RegisterCounter(
      "bdi.linkage.matching.batch.slabs");
  return *counter;
}

metrics::Counter& LanesCounter() {
  static metrics::Counter* counter = metrics::Registry::Get().RegisterCounter(
      "bdi.linkage.matching.batch.lanes");
  return *counter;
}

metrics::Counter& VectorPassCounter() {
  static metrics::Counter* counter = metrics::Registry::Get().RegisterCounter(
      "bdi.linkage.matching.batch.vector_pass");
  return *counter;
}

/// Lanes per tile of the slab. A chunk can hold tens of thousands of
/// pairs; materializing its whole feature array would spill the cache
/// between filling the lanes and running the kernels over them, so each
/// tile is processed end to end (gather, kernels, write) before the next
/// begins. At 1024 lanes the tile's working set — features (40 KiB) and
/// refs (8 KiB) — stays resident in L2. Tiling only regroups the passes;
/// every lane still runs the same per-pair operations in the same order.
constexpr size_t kSlabTileLanes = 1024;

/// Copies `pairs[0..n)` into the slab's lane arrays (growing them when
/// needed), with `n <= kSlabTileLanes`.
void FillLanes(const CandidatePair* pairs, size_t n, CandidateSlab& slab) {
  slab.a.resize(std::max(slab.a.size(), n));
  slab.b.resize(std::max(slab.b.size(), n));
  slab.features.resize(std::max(slab.features.size(), n));
  for (size_t i = 0; i < n; ++i) {
    slab.a[i] = pairs[i].a;
    slab.b[i] = pairs[i].b;
  }
}

}  // namespace

void ScoreCandidateSlab(const FeatureExtractor& extractor,
                        const PairScorer& scorer, const CandidatePair* pairs,
                        size_t n, CandidateSlab& slab, double* scores) {
  if (metrics::Enabled()) {
    SlabsCounter().Add();
    LanesCounter().Add(n);
  }
  for (size_t base = 0; base < n; base += kSlabTileLanes) {
    size_t tile = std::min(kSlabTileLanes, n - base);
    FillLanes(pairs + base, tile, slab);
    extractor.ExtractBatch(slab.a.data(), slab.b.data(), tile,
                           slab.features.data(), slab.scratch);
    scorer.ScoreBatch(slab.features.data(), tile, scores + base);
  }
}

void BoundCandidateSlab(const FeatureExtractor& extractor,
                        const PairScorer& scorer, const CandidatePair* pairs,
                        size_t n, CandidateSlab& slab, double* bounds) {
  // The signature reductions underneath run the dispatched SSE2/AVX2
  // kernels; each lane's result is the exact integer arithmetic the
  // scalar path produces.
  if (metrics::Enabled() &&
      cpu::ActiveSimdLevel() != cpu::SimdLevel::kScalar) {
    VectorPassCounter().Add(n);
  }
  for (size_t base = 0; base < n; base += kSlabTileLanes) {
    size_t tile = std::min(kSlabTileLanes, n - base);
    FillLanes(pairs + base, tile, slab);
    extractor.ExtractBoundsBatch(slab.a.data(), slab.b.data(), tile,
                                 slab.features.data(), slab.scratch);
    scorer.ScoreUpperBoundBatch(slab.features.data(), tile, bounds + base);
  }
}

}  // namespace bdi::linkage
