// Test-only reference matcher: the per-pair full-kernel loop that the
// production matcher (the bound-ranked scheduler, ScorePairsProgressive)
// must reproduce bit for bit when unbudgeted. It has no prefilter, no
// scratch pool, no scheduling and no threads — every candidate pair gets
// `scorer.Score(extractor.Extract(a, b))` — so agreement with it pins
// every shortcut the runtime path takes: sound bounds, warm scratch
// reuse, chunking and schedule order.
#ifndef BDI_TESTS_LINKAGE_REFERENCE_MATCHER_H_
#define BDI_TESTS_LINKAGE_REFERENCE_MATCHER_H_

#include <gtest/gtest.h>

#include <vector>

#include "bdi/linkage/linkage.h"
#include "bdi/text/similarity.h"

namespace bdi::linkage {

/// Scores every pair of `linker.last_candidates()` (so `linker.Run()` must
/// have run) with the per-pair full kernels, keeps the pairs at or above
/// the scorer's threshold in candidate order, and clusters them over the
/// dataset's `num_records` records with `clustering`.
inline LinkageResult ReferenceMatch(
    Linker& linker, size_t num_records,
    ClusteringMethod clustering = ClusteringMethod::kConnectedComponents) {
  const FeatureExtractor& extractor = linker.extractor();
  const PairScorer& scorer = linker.scorer();
  LinkageResult result;
  result.num_candidates = linker.last_candidates().size();
  text::SimilarityScratch scratch;
  for (const CandidatePair& pair : linker.last_candidates()) {
    double score = scorer.Score(extractor.Extract(pair.a, pair.b, scratch));
    if (score >= scorer.threshold()) {
      result.matches.push_back(ScoredPair{pair, score});
    }
  }
  result.num_matches = result.matches.size();
  result.clusters = ClusterRecords(num_records, result.matches, clustering);
  return result;
}

/// Expects `actual` to equal `expected` exactly: candidate count, the
/// match list (same pairs in the same order, bitwise-equal scores) and
/// every record's cluster label.
inline void ExpectSameLinkage(const LinkageResult& expected,
                              const LinkageResult& actual) {
  EXPECT_EQ(expected.num_candidates, actual.num_candidates);
  ASSERT_EQ(expected.matches.size(), actual.matches.size());
  for (size_t i = 0; i < expected.matches.size(); ++i) {
    EXPECT_EQ(expected.matches[i].pair.a, actual.matches[i].pair.a)
        << "match " << i;
    EXPECT_EQ(expected.matches[i].pair.b, actual.matches[i].pair.b)
        << "match " << i;
    EXPECT_EQ(expected.matches[i].score, actual.matches[i].score)
        << "match " << i;
  }
  ASSERT_EQ(expected.clusters.label_of_record.size(),
            actual.clusters.label_of_record.size());
  for (size_t r = 0; r < expected.clusters.label_of_record.size(); ++r) {
    EXPECT_EQ(expected.clusters.label_of_record[r],
              actual.clusters.label_of_record[r])
        << "record " << r;
  }
}

/// Runs a Linker over `dataset` with `config`, expects its result to equal
/// the reference matcher's over the same candidates, and returns it.
inline LinkageResult RunAgainstReference(const Dataset& dataset,
                                         const LinkerConfig& config) {
  Linker linker(&dataset, config);
  LinkageResult result = linker.Run();
  ExpectSameLinkage(
      ReferenceMatch(linker, dataset.num_records(), config.clustering),
      result);
  return result;
}

}  // namespace bdi::linkage

#endif  // BDI_TESTS_LINKAGE_REFERENCE_MATCHER_H_
