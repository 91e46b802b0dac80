// Linker::AddNewRecords: a resident index links appended records by
// comparing only the pairs they add (equivalence with a batch Run() is
// pinned by linkage_index_equivalence_test).
#include "bdi/linkage/linkage.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "bdi/synth/world.h"

namespace bdi::linkage {
namespace {

TEST(IncrementalLinkerTest, LinksInitialCorpus) {
  synth::WorldConfig config;
  config.seed = 51;
  config.num_entities = 100;
  config.num_sources = 8;
  synth::SyntheticWorld world = synth::GenerateWorld(config);
  Linker linker(&world.dataset, {});
  linker.AddNewRecords();
  EXPECT_EQ(linker.num_indexed(), world.dataset.num_records());
  LinkageQuality quality = EvaluateClusters(
      linker.Clusters().label_of_record, world.truth.entity_of_record);
  EXPECT_GE(quality.precision, 0.85);
  EXPECT_GE(quality.recall, 0.7);
}

TEST(IncrementalLinkerTest, IncrementalInsertsMatchNewRecords) {
  // Start with part of the corpus, then append the rest in batches; final
  // quality should be close to indexing everything at once.
  synth::WorldConfig config;
  config.seed = 53;
  config.num_entities = 100;
  config.num_sources = 8;
  synth::SyntheticWorld full = synth::GenerateWorld(config);

  // Rebuild a dataset with the same records so we control insert order:
  // first 60%, then batches.
  Dataset dataset;
  for (const SourceInfo& source : full.dataset.sources()) {
    dataset.AddSource(source.name);
  }
  size_t initial = full.dataset.num_records() * 6 / 10;
  std::vector<EntityId> truth;
  auto copy_record = [&](size_t r) {
    const Record& record = full.dataset.record(static_cast<RecordIdx>(r));
    std::vector<std::pair<std::string, std::string>> fields;
    for (const Field& field : record.fields) {
      fields.emplace_back(full.dataset.attr_name(field.attr), field.value);
    }
    dataset.AddRecord(record.source, fields);
    truth.push_back(full.truth.entity_of_record[r]);
  };
  for (size_t r = 0; r < initial; ++r) copy_record(r);

  Linker linker(&dataset, {});
  size_t comparisons_initial = linker.AddNewRecords();

  for (size_t r = initial; r < full.dataset.num_records(); ++r) {
    copy_record(r);
  }
  size_t batch_comparisons = linker.AddNewRecords();
  EXPECT_GT(batch_comparisons, 0u);
  EXPECT_EQ(linker.num_indexed(), dataset.num_records());
  // The incremental batch costs less than re-doing everything.
  EXPECT_LT(batch_comparisons, comparisons_initial + batch_comparisons);

  LinkageQuality quality =
      EvaluateClusters(linker.Clusters().label_of_record, truth);
  EXPECT_GE(quality.precision, 0.85);
  EXPECT_GE(quality.recall, 0.65);
}

// last_progressive() describes the latest batch, budgeted or not: an
// unbudgeted batch after a budget-stopped one must not report the earlier
// batch's stats.
TEST(IncrementalLinkerTest, UnbudgetedBatchReportsItsOwnSchedulerStats) {
  synth::WorldConfig config;
  config.seed = 53;
  config.num_entities = 100;
  config.num_sources = 8;
  synth::SyntheticWorld full = synth::GenerateWorld(config);
  Dataset dataset;
  for (const SourceInfo& source : full.dataset.sources()) {
    dataset.AddSource(source.name);
  }
  auto copy_records = [&](size_t begin, size_t end) {
    for (size_t r = begin; r < end; ++r) {
      const Record& record = full.dataset.record(static_cast<RecordIdx>(r));
      std::vector<std::pair<std::string, std::string>> fields;
      for (const Field& field : record.fields) {
        fields.emplace_back(full.dataset.attr_name(field.attr), field.value);
      }
      dataset.AddRecord(record.source, fields);
    }
  };
  size_t initial = full.dataset.num_records() * 2 / 3;
  copy_records(0, initial);

  LinkerConfig linker_config;
  linker_config.comparison_budget = 0.1;
  Linker linker(&dataset, linker_config);
  linker.AddNewRecords();
  ASSERT_TRUE(linker.last_progressive().budget_stopped);

  linker.set_comparison_budget(0.0);
  copy_records(initial, full.dataset.num_records());
  size_t comparisons = linker.AddNewRecords();
  const ProgressiveStats& stats = linker.last_progressive();
  EXPECT_FALSE(stats.budget_stopped);
  EXPECT_EQ(stats.num_deferred, 0u);
  EXPECT_EQ(stats.num_scheduled, stats.num_survivors);
  EXPECT_EQ(stats.num_survivors + stats.num_skipped, comparisons);
}

TEST(IncrementalLinkerTest, AddNewRecordsIdempotentWhenNothingNew) {
  synth::WorldConfig config;
  config.seed = 55;
  config.num_entities = 50;
  config.num_sources = 5;
  synth::SyntheticWorld world = synth::GenerateWorld(config);
  Linker linker(&world.dataset, {});
  linker.AddNewRecords();
  size_t edges = linker.edges().size();
  EXPECT_EQ(linker.AddNewRecords(), 0u);
  EXPECT_EQ(linker.edges().size(), edges);
}

}  // namespace
}  // namespace bdi::linkage
