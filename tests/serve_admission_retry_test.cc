// Admission control sheds a batch that arrives while the pending budget is
// full; a client that waits out the retry_after_ms hint and sends the same
// batch again gets it applied. (ServeAdmissionTest in
// serve_recovery_test.cc covers shedding itself and its lack of side
// effects.)
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bdi/serve/store.h"
#include "bdi/synth/world.h"

namespace bdi::serve {
namespace {

std::vector<UpdateRecord> LiveBatch(const std::string& tag, size_t count) {
  std::vector<UpdateRecord> records;
  for (size_t i = 0; i < count; ++i) {
    UpdateRecord record;
    record.source = "retry-src-" + std::to_string(i % 3);
    record.fields.emplace_back("name",
                               tag + " entity " + std::to_string(i));
    record.fields.emplace_back("weight", std::to_string(100 + i) + " g");
    records.push_back(std::move(record));
  }
  return records;
}

TEST(ServeAdmissionTest, ShedBatchLandsAfterRetry) {
  synth::WorldConfig world_config;
  world_config.seed = 2048;
  world_config.num_entities = 60;
  world_config.num_sources = 5;
  synth::SyntheticWorld world = synth::GenerateWorld(world_config);
  const size_t bootstrap_records = world.dataset.num_records();

  StoreConfig config;
  config.num_shards = 4;
  config.max_pending_batches = 1;
  Result<std::unique_ptr<EntityStore>> created =
      EntityStore::Create(std::move(world.dataset), config);
  ASSERT_TRUE(created.ok()) << created.status();
  EntityStore& store = *created.value();

  const std::vector<UpdateRecord> small = LiveBatch("small", 2);
  size_t applied_batches = 0;
  size_t applied_records = 0;
  size_t sheds = 0;
  // A shed needs the small batch to arrive while a large one is pending.
  // Each round starts a large batch, waits until it is admitted, then
  // sends the small one; a round whose large batch finished first lands
  // the small one unshed and the next round tries again.
  for (int round = 0; round < 10 && sheds == 0; ++round) {
    const std::vector<UpdateRecord> large =
        LiveBatch("large" + std::to_string(round), 200);
    bool large_ok = false;
    std::thread writer([&] { large_ok = store.ApplyBatch(large).ok(); });
    while (store.pending_batches() == 0 &&
           store.num_batches() <= applied_batches) {
      std::this_thread::yield();
    }
    bool small_ok = false;
    // Bounded, so a store that never readmits fails instead of hanging.
    for (int attempt = 0; attempt < 1000; ++attempt) {
      BatchRejection rejection;
      Result<BatchResult> result = store.ApplyBatch(small, &rejection);
      small_ok = result.ok();
      // Anything but a shed ends the retries (the writer is joined below
      // before any assertion can return).
      if (small_ok || result.status().code() != StatusCode::kUnavailable) {
        EXPECT_TRUE(small_ok) << result.status();
        break;
      }
      EXPECT_GE(rejection.retry_after_ms, 1.0);
      ++sheds;
      std::this_thread::sleep_for(std::chrono::microseconds(
          static_cast<long long>(
              std::min(rejection.retry_after_ms, 50.0) * 1000.0)));
    }
    writer.join();
    ASSERT_TRUE(large_ok);
    ASSERT_TRUE(small_ok);
    applied_batches += 2;
    applied_records += large.size() + small.size();
  }
  EXPECT_GE(sheds, 1u);
  // Every batch landed exactly once: sheds consumed no sequence number.
  EXPECT_EQ(store.wal_sequence(), applied_batches);
  EXPECT_EQ(store.snapshot()->num_records(),
            bootstrap_records + applied_records);
  EXPECT_EQ(store.pending_batches(), 0u);
}

}  // namespace
}  // namespace bdi::serve
