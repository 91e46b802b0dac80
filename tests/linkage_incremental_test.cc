#include "bdi/linkage/incremental.h"

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
  IncrementalLinker linker(&world.dataset, {});
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

  IncrementalLinker linker(&dataset, {});
  linker.AddNewRecords();
  size_t comparisons_initial = linker.total_comparisons();

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

  IncrementalLinker::Config linker_config;
  linker_config.comparison_budget = 0.1;
  IncrementalLinker linker(&dataset, linker_config);
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
  IncrementalLinker linker(&world.dataset, {});
  linker.AddNewRecords();
  size_t edges = linker.num_edges();
  EXPECT_EQ(linker.AddNewRecords(), 0u);
  EXPECT_EQ(linker.num_edges(), edges);
}

TEST(IncrementalLinkerTest, RemovalDetachesRecords) {
  Dataset dataset;
  SourceId s0 = dataset.AddSource("s0");
  SourceId s1 = dataset.AddSource("s1");
  SourceId s2 = dataset.AddSource("s2");
  // Three records of the same entity (shared id), linked transitively.
  dataset.AddRecord(s0, {{"name", "Canon X100"}, {"sku", "cm10001"}});
  dataset.AddRecord(s1, {{"name", "canon x100"}, {"sku", "cm10001"}});
  dataset.AddRecord(s2, {{"name", "CANON X100"}, {"sku", "cm10001"}});
  // Noise records so role detection sees variety.
  for (int i = 0; i < 10; ++i) {
    dataset.AddRecord(s0, {{"name", "Filler A" + std::to_string(i)},
                           {"sku", "fa900" + std::to_string(i)}});
    dataset.AddRecord(s1, {{"name", "filler b" + std::to_string(i)},
                           {"sku", "fb800" + std::to_string(i)}});
  }
  IncrementalLinker linker(&dataset, {});
  linker.AddNewRecords();
  EntityClusters before = linker.Clusters();
  EXPECT_EQ(before.label_of_record[0], before.label_of_record[1]);
  EXPECT_EQ(before.label_of_record[1], before.label_of_record[2]);

  linker.RemoveRecords({1});
  EntityClusters after = linker.Clusters();
  // 0 and 2 remain linked (they also share the id directly).
  EXPECT_EQ(after.label_of_record[0], after.label_of_record[2]);
  // The tombstoned record becomes a singleton.
  EXPECT_NE(after.label_of_record[1], after.label_of_record[0]);
}

TEST(IncrementalLinkerTest, RemovedRecordsStopGeneratingCandidates) {
  Dataset dataset;
  SourceId s0 = dataset.AddSource("s0");
  SourceId s1 = dataset.AddSource("s1");
  dataset.AddRecord(s0, {{"name", "Widget W1"}, {"sku", "w10001"}});
  for (int i = 0; i < 10; ++i) {
    dataset.AddRecord(s0, {{"name", "Filler A" + std::to_string(i)},
                           {"sku", "fa900" + std::to_string(i)}});
    dataset.AddRecord(s1, {{"name", "filler b" + std::to_string(i)},
                           {"sku", "fb800" + std::to_string(i)}});
  }
  IncrementalLinker linker(&dataset, {});
  linker.AddNewRecords();
  linker.RemoveRecords({0});
  // A new twin of record 0 arrives; it must not link to the tombstone.
  dataset.AddRecord(s1, {{"name", "widget w1"}, {"sku", "w10001"}});
  linker.AddNewRecords();
  EntityClusters clusters = linker.Clusters();
  RecordIdx twin = static_cast<RecordIdx>(dataset.num_records() - 1);
  EXPECT_NE(clusters.label_of_record[0], clusters.label_of_record[twin]);
}

}  // namespace
}  // namespace bdi::linkage
