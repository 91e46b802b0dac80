// The files the seeded generator hands to the measured program: corpus
// `.bds` files, request lines, answer probes and the ground truth used
// only to score outputs. Names and formats shared by perfbench_gen and
// perfbench_run.
#ifndef PERFBENCH_CORPUS_FILES_H_
#define PERFBENCH_CORPUS_FILES_H_

#include <string>
#include <vector>

#include "bdi/common/result.h"
#include "bdi/common/status.h"
#include "bdi/model/dataset.h"
#include "bdi/model/ground_truth.h"

namespace perfbench {

/// File names inside a workload's corpus directory.
inline constexpr char kCorpusFile[] = "corpus.bds";        // whole corpus
inline constexpr char kBootstrapFile[] = "bootstrap.bds";  // serve-mixed
inline constexpr char kTruthFile[] = "truth.tsv";
inline constexpr char kRequestsFile[] = "requests.jsonl";  // find/ask mix
inline constexpr char kUpdatesFile[] = "updates.jsonl";    // update batches
inline constexpr char kProbesFile[] = "probes.jsonl";      // ask lines
inline constexpr char kProbeAnswersFile[] = "probes.expected";

/// Writes one string per line; fails on a string holding a newline.
bdi::Status WriteLines(const std::string& path,
                       const std::vector<std::string>& lines);
/// Reads the lines WriteLines wrote.
bdi::Result<std::vector<std::string>> ReadLines(const std::string& path);

/// Writes the scoring part of `truth` (record -> entity labels, true item
/// values, source-attribute -> canonical-attribute map) keyed by source
/// and attribute *names*, so it stays valid for any dataset that holds the
/// same corpus whatever ids that dataset interned.
bdi::Status WriteTruth(const std::string& path, const bdi::GroundTruth& truth,
                       const bdi::Dataset& dataset);
/// Reads a truth file back against `dataset` (names resolved to its ids;
/// entries naming a source or attribute it lacks are dropped).
bdi::Result<bdi::GroundTruth> ReadTruth(const std::string& path,
                                        const bdi::Dataset& dataset);

}  // namespace perfbench

#endif  // PERFBENCH_CORPUS_FILES_H_
