// perfbench_gen — writes one workload's seeded inputs: the corpus as
// `.bds`, request lines, answer probes and scoring truth. It is the only
// benchmark program that sees the seed; perfbench_run reads the files.
//
//   perfbench_gen --workload integrate|serve-read|serve-mixed
//                 --seed N --out DIR
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bdi/common/random.h"
#include "bdi/serve/wire.h"
#include "bdi/storage/bds_writer.h"
#include "bdi/synth/world.h"
#include "corpus_files.h"

using namespace bdi;

namespace {

/// Request lines in the find/ask pool; clients cycle through it.
constexpr size_t kRequestPool = 8192;
/// Ask probes scored for answer_accuracy.
constexpr size_t kProbes = 1000;
/// Records per serve-mixed update batch.
constexpr size_t kBatchRecords = 25;
/// Share of the serve-mixed corpus in the bootstrap.
constexpr double kBootstrapShare = 0.7;

/// Canonical attributes 0 and 1 are the name and identifier; probes and
/// asks target the descriptive attributes after them.
constexpr size_t kFirstDescriptiveAttr = 2;

synth::WorldConfig WorldFor(const std::string& workload, uint64_t seed) {
  synth::WorldConfig config;
  config.seed = seed;
  // Heavy source overlap with copiers: every source covers at least 40%
  // of the entities, so linkage and AccuCopy fusion have real work.
  config.min_source_coverage = 0.4;
  config.num_copiers = 3;
  if (workload == "integrate") {
    config.num_entities = 400;
    config.num_sources = 40;
  } else {
    // The serving corpus: 30% of it makes at least a hundred 25-record
    // update batches, and fewer sources keep each batch's whole-corpus
    // refresh short enough to drain them all in one measuring window.
    config.num_entities = 1000;
    config.num_sources = 20;
    // Camera attributes, but no category word in entity names: the
    // generator appends it to half the names, so half the queries would
    // share one token with 500 entities and the median request would sit
    // on the cliff between a cheap and an expensive mode, decided by the
    // seed. Every query still shares its brand token with about a twelfth
    // of the entities.
    config.category = "";
    config.attributes = synth::DefaultAttributes("camera");
  }
  return config;
}

/// Draws entities by Zipf rank and gives each request the noisy display
/// name of one of the entity's records, so a lookup can rank another
/// entity first.
class QueryMaker {
 public:
  QueryMaker(const synth::SyntheticWorld& world, uint64_t seed)
      : world_(world), rng_(seed), records_of_(world.truth.num_entities()) {
    const Dataset& dataset = world.dataset;
    for (const Record& record : dataset.records()) {
      records_of_[world.truth.entity_of_record[record.idx]].push_back(
          record.idx);
    }
    for (size_t e = 0; e < records_of_.size(); ++e) {
      if (!records_of_[e].empty()) entities_.push_back(e);
    }
    zipf_ = std::make_unique<ZipfDistribution>(entities_.size(), 1.0);
    // Asks name an attribute the way most sources publish it.
    std::vector<std::map<std::string, int>> counts(
        world.truth.canonical_attrs.size());
    for (const auto& [sa, canonical] : world.truth.canonical_of_source_attr) {
      ++counts[canonical][dataset.attr_name(sa.attr)];
    }
    for (const std::map<std::string, int>& names : counts) {
      std::string best;
      int best_count = 0;
      for (const auto& [name, count] : names) {
        if (count > best_count) {
          best = name;
          best_count = count;
        }
      }
      attr_names_.push_back(best);
    }
  }

  size_t ZipfEntity() { return entities_[zipf_->Sample(&rng_)]; }
  size_t UniformEntity() {
    return entities_[rng_.UniformInt(0, entities_.size() - 1)];
  }

  /// Noisy name of a random record of `entity` (its first field).
  std::string NameOf(size_t entity) {
    const std::vector<RecordIdx>& records = records_of_[entity];
    RecordIdx r = records[rng_.UniformInt(0, records.size() - 1)];
    return world_.dataset.record(r).fields.front().value;
  }

  /// The attribute name most sources publish canonical attribute `attr`
  /// under.
  const std::string& AttrName(int attr) const { return attr_names_[attr]; }

  /// A descriptive canonical attribute with a true value for `entity`, or
  /// -1 when it has none.
  int AttrOf(size_t entity) {
    const std::vector<std::string>& values = world_.truth.true_values[entity];
    std::vector<int> known;
    for (size_t a = kFirstDescriptiveAttr; a < values.size(); ++a) {
      if (!values[a].empty()) known.push_back(static_cast<int>(a));
    }
    if (known.empty()) return -1;
    return known[rng_.UniformInt(0, known.size() - 1)];
  }

  Rng& rng() { return rng_; }

 private:
  const synth::SyntheticWorld& world_;
  Rng rng_;
  std::vector<std::vector<RecordIdx>> records_of_;
  std::vector<size_t> entities_;
  std::unique_ptr<ZipfDistribution> zipf_;
  std::vector<std::string> attr_names_;
};

std::string AskLine(long long id, const std::string& attribute,
                    const std::string& entity) {
  std::string line = "{\"op\":\"ask\",\"id\":" + std::to_string(id) +
                     ",\"attribute\":";
  serve::AppendJsonString(&line, attribute);
  line += ",\"entity\":";
  serve::AppendJsonString(&line, entity);
  line += "}";
  return line;
}

std::string FindLine(long long id, const std::string& entity) {
  std::string line = "{\"op\":\"find\",\"id\":" + std::to_string(id) +
                     ",\"k\":5,\"entity\":";
  serve::AppendJsonString(&line, entity);
  line += "}";
  return line;
}

/// The Zipf-skewed 50/50 find/ask pool.
std::vector<std::string> RequestPool(QueryMaker* maker) {
  std::vector<std::string> lines;
  while (lines.size() < kRequestPool) {
    size_t entity = maker->ZipfEntity();
    long long id = static_cast<long long>(lines.size());
    if (maker->rng().Bernoulli(0.5)) {
      lines.push_back(FindLine(id, maker->NameOf(entity)));
      continue;
    }
    int attr = maker->AttrOf(entity);
    if (attr < 0) continue;
    lines.push_back(AskLine(id, maker->AttrName(attr), maker->NameOf(entity)));
  }
  return lines;
}

/// Ask probes over uniformly drawn entities, with the true value each
/// answer is scored against.
std::pair<std::vector<std::string>, std::vector<std::string>> Probes(
    const synth::SyntheticWorld& world, QueryMaker* maker) {
  std::vector<std::string> lines;
  std::vector<std::string> expected;
  while (lines.size() < kProbes) {
    size_t entity = maker->UniformEntity();
    int attr = maker->AttrOf(entity);
    if (attr < 0) continue;
    lines.push_back(AskLine(static_cast<long long>(lines.size()),
                            maker->AttrName(attr), maker->NameOf(entity)));
    expected.push_back(world.truth.true_values[entity][attr]);
  }
  return {std::move(lines), std::move(expected)};
}

/// The first `count` records of `dataset` as a dataset of their own,
/// interned the way the store interns update records.
Dataset Prefix(const Dataset& dataset, size_t count) {
  Dataset prefix;
  for (size_t r = 0; r < count; ++r) {
    const Record& record = dataset.record(static_cast<RecordIdx>(r));
    while (prefix.num_sources() <= static_cast<size_t>(record.source)) {
      prefix.AddSource(
          dataset.source(static_cast<SourceId>(prefix.num_sources())).name);
    }
    std::vector<std::pair<std::string, std::string>> fields;
    for (const Field& field : record.fields) {
      fields.emplace_back(dataset.attr_name(field.attr), field.value);
    }
    prefix.AddRecord(record.source, fields);
  }
  return prefix;
}

/// Records [begin, end) as update lines of kBatchRecords records each.
std::vector<std::string> UpdateLines(const Dataset& dataset, size_t begin,
                                     size_t end) {
  std::vector<std::string> lines;
  for (size_t start = begin; start < end; start += kBatchRecords) {
    std::string line = "{\"op\":\"update\",\"id\":" +
                       std::to_string(lines.size()) + ",\"records\":[";
    for (size_t r = start; r < std::min(end, start + kBatchRecords); ++r) {
      const Record& record = dataset.record(static_cast<RecordIdx>(r));
      if (r > start) line += ",";
      line += "{\"source\":";
      serve::AppendJsonString(&line, dataset.source(record.source).name);
      line += ",\"fields\":{";
      for (size_t f = 0; f < record.fields.size(); ++f) {
        if (f > 0) line += ",";
        serve::AppendJsonString(&line,
                                dataset.attr_name(record.fields[f].attr));
        line += ":";
        serve::AppendJsonString(&line, record.fields[f].value);
      }
      line += "}}";
    }
    line += "]}";
    lines.push_back(std::move(line));
  }
  return lines;
}

Status Generate(const std::string& workload, uint64_t seed,
                const std::string& dir) {
  synth::SyntheticWorld world = synth::GenerateWorld(WorldFor(workload, seed));
  // A second stream, so the request mix does not shift the world.
  QueryMaker maker(world, seed ^ 0x9e3779b97f4a7c15ull);
  auto [probes, expected] = Probes(world, &maker);
  BDI_RETURN_IF_ERROR(perfbench::WriteLines(dir + "/" + perfbench::kProbesFile,
                                            probes));
  BDI_RETURN_IF_ERROR(perfbench::WriteLines(
      dir + "/" + perfbench::kProbeAnswersFile, expected));

  if (workload == "integrate") {
    BDI_RETURN_IF_ERROR(storage::WriteDatasetBds(
        world.dataset, dir + "/" + perfbench::kCorpusFile));
    return perfbench::WriteTruth(dir + "/" + perfbench::kTruthFile,
                                 world.truth, world.dataset);
  }
  BDI_RETURN_IF_ERROR(perfbench::WriteLines(
      dir + "/" + perfbench::kRequestsFile, RequestPool(&maker)));
  if (workload == "serve-read") {
    return storage::WriteDatasetBds(world.dataset,
                                    dir + "/" + perfbench::kCorpusFile);
  }
  const size_t total = world.dataset.num_records();
  const size_t bootstrap = static_cast<size_t>(kBootstrapShare *
                                               static_cast<double>(total));
  BDI_RETURN_IF_ERROR(storage::WriteDatasetBds(
      Prefix(world.dataset, bootstrap),
      dir + "/" + perfbench::kBootstrapFile));
  return perfbench::WriteLines(dir + "/" + perfbench::kUpdatesFile,
                              UpdateLines(world.dataset, bootstrap, total));
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string out;
  long long seed = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    if (flag == "--workload") workload = argv[i + 1];
    else if (flag == "--out") out = argv[i + 1];
    else if (flag == "--seed") seed = std::atoll(argv[i + 1]);
  }
  if ((workload != "integrate" && workload != "serve-read" &&
       workload != "serve-mixed") ||
      out.empty() || seed < 0) {
    std::fprintf(stderr,
                 "usage: perfbench_gen --workload integrate|serve-read|"
                 "serve-mixed --seed N --out DIR\n");
    return 2;
  }
  Status status = Generate(workload, static_cast<uint64_t>(seed), out);
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench_gen: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
