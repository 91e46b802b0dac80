// The Linker's resident blocking index against two oracles:
//
//  1. Run()'s candidate list equals BlocksToPairs over the union of
//     IdentifierBlocker and TokenBlocker blocks (the blocking path the
//     index replaced), in the same sorted order, at 1 and 4 threads.
//  2. Linking a corpus in batches through AddNewRecords() gives the
//     candidate set, the bitwise match scores and the clusters of one
//     Run() over the same records, for every batch partition and thread
//     count — including a corpus where a name posting grows past its cap
//     mid-stream and one where an indexed attribute's role flips.
#include "bdi/linkage/linkage.h"

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bdi/schema/attribute_stats.h"
#include "bdi/synth/world.h"

namespace bdi::linkage {
namespace {

synth::SyntheticWorld MakeWorld(uint64_t seed) {
  synth::WorldConfig config;
  config.seed = seed;
  config.num_entities = 120;
  config.num_sources = 10;
  return synth::GenerateWorld(config);
}

// Appends records [begin, end) of `full` to `out`, adding sources on
// demand in record order, so a dataset grown batch by batch gets the same
// source and attribute ids as one copied at once.
void AppendRecords(const Dataset& full, size_t begin, size_t end,
                   Dataset* out) {
  for (size_t r = begin; r < end; ++r) {
    const Record& record = full.record(static_cast<RecordIdx>(r));
    const std::string& name = full.source(record.source).name;
    SourceId source = kInvalidSource;
    for (const SourceInfo& info : out->sources()) {
      if (info.name == name) source = info.id;
    }
    if (source == kInvalidSource) source = out->AddSource(name);
    std::vector<std::pair<std::string, std::string>> fields;
    for (const Field& field : record.fields) {
      fields.emplace_back(full.attr_name(field.attr), field.value);
    }
    out->AddRecord(source, fields);
  }
}

// A synthetic world whose display names all carry the token "acme": its
// posting crosses kNameMaxPosting once more than 200 records are in. The
// records arrive round-robin over the sources, so roles settle early and
// the crossing batch retracts pairs instead of re-linking. Two twin
// records lead the stream: their names are just "acme" and their one
// other value agrees, so they match while "acme" is live and the
// crossing batch must retract that edge.
Dataset AcmeWorld() {
  synth::SyntheticWorld world = MakeWorld(61);
  std::vector<std::vector<RecordIdx>> by_source(world.dataset.num_sources());
  for (const Record& record : world.dataset.records()) {
    by_source[record.source].push_back(record.idx);
  }
  Dataset out;
  for (const SourceInfo& info : world.dataset.sources()) {
    out.AddSource(info.name);
  }
  for (SourceId source : {0, 1}) {
    const Record& first = world.dataset.record(by_source[source][0]);
    out.AddRecord(source, {{world.dataset.attr_name(first.fields[0].attr),
                            "acme"},
                           {"twin finish", "matte black"}});
  }
  const size_t total = world.dataset.num_records() + 2;
  for (size_t i = 0; out.num_records() < total; ++i) {
    for (const std::vector<RecordIdx>& records : by_source) {
      if (i >= records.size()) continue;
      const Record& record = world.dataset.record(records[i]);
      std::vector<std::pair<std::string, std::string>> fields;
      for (const Field& field : record.fields) {
        fields.emplace_back(world.dataset.attr_name(field.attr), field.value);
      }
      fields[0].second += " acme";
      out.AddRecord(record.source, fields);
    }
  }
  return out;
}

// Four shops list 60 products by title and sku; then 60 kit listings of
// shop s0 all share one sku, so s0's sku stops being an identifier once
// they arrive.
Dataset RoleFlipWorld() {
  Dataset out;
  std::vector<SourceId> shops;
  for (int s = 0; s < 4; ++s) {
    shops.push_back(out.AddSource("shop" + std::to_string(s)));
  }
  const char* brands[] = {"canon", "nikon", "sony", "fuji", "leica"};
  for (int e = 0; e < 60; ++e) {
    for (int s = 0; s < 4; ++s) {
      std::string title = std::string(brands[e % 5]) + " model" +
                          std::to_string(e) + " camera";
      if (s % 2 == 1) title += " body";
      out.AddRecord(shops[s], {{"title", title},
                               {"sku", "cm" + std::to_string(10000 + e)},
                               {"color", e % 3 == 0 ? "black" : "silver"}});
    }
  }
  for (int k = 0; k < 60; ++k) {
    out.AddRecord(shops[0], {{"title", "accessory kit " + std::to_string(k)},
                             {"sku", "kit0001"},
                             {"color", "black"}});
  }
  return out;
}

std::vector<CandidatePair> BlockerUnionPairs(const Dataset& dataset,
                                             const AttrRoles& roles,
                                             size_t num_threads) {
  IdentifierBlocker id_blocker;
  id_blocker.set_num_threads(num_threads);
  std::vector<Block> blocks = id_blocker.MakeBlocksAll(dataset, &roles);
  TokenBlocker token_blocker;
  token_blocker.set_num_threads(num_threads);
  std::vector<Block> token_blocks =
      token_blocker.MakeBlocksAll(dataset, &roles);
  blocks.insert(blocks.end(), std::make_move_iterator(token_blocks.begin()),
                std::make_move_iterator(token_blocks.end()));
  return BlocksToPairs(dataset, blocks, /*allow_same_source=*/false,
                       num_threads);
}

void ExpectRunEqualsBlockerUnion(const Dataset& dataset) {
  for (size_t threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    LinkerConfig config;
    config.num_threads = threads;
    Linker linker(&dataset, config);
    LinkageResult result = linker.Run();
    std::vector<CandidatePair> expected =
        BlockerUnionPairs(dataset, linker.roles(), threads);
    ASSERT_FALSE(expected.empty());
    EXPECT_EQ(result.num_candidates, expected.size());
    EXPECT_TRUE(linker.last_candidates() == expected);
    EXPECT_TRUE(linker.Candidates() == expected);
    EXPECT_EQ(linker.num_candidates(), expected.size());
  }
}

TEST(LinkerBlockingOracleTest, RunCandidatesEqualIdentifierAndTokenBlocks) {
  for (uint64_t seed : {7, 31, 1001}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ExpectRunEqualsBlockerUnion(MakeWorld(seed).dataset);
  }
  ExpectRunEqualsBlockerUnion(AcmeWorld());
  ExpectRunEqualsBlockerUnion(RoleFlipWorld());
}

// Batch end offsets: one batch, seven near-equal batches, or 25 records
// per batch.
std::vector<size_t> Partition(size_t total, const std::string& kind) {
  std::vector<size_t> ends;
  if (kind == "one") {
    ends.push_back(total);
  } else if (kind == "seven") {
    for (size_t i = 1; i <= 7; ++i) ends.push_back(total * i / 7);
  } else {
    for (size_t end = 25; end < total; end += 25) ends.push_back(end);
    ends.push_back(total);
  }
  return ends;
}

// Links `full` batch by batch (roles refreshed from the grown corpus'
// statistics before each batch, as serving does) and expects the state
// of one Run() over the same records.
void ExpectBatchesEqualRun(const Dataset& full) {
  for (size_t threads : {1, 4}) {
    LinkerConfig config;
    config.num_threads = threads;
    Dataset oracle_dataset;
    AppendRecords(full, 0, full.num_records(), &oracle_dataset);
    Linker oracle(&oracle_dataset, config);
    LinkageResult expected = oracle.Run();
    ASSERT_GT(expected.num_matches, 0u);
    for (const std::string kind : {"one", "seven", "25"}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) + " batches=" + kind);
      std::vector<size_t> ends = Partition(full.num_records(), kind);
      Dataset dataset;
      AppendRecords(full, 0, ends[0], &dataset);
      Linker linker(&dataset, config);
      size_t begin = 0;
      for (size_t end : ends) {
        AppendRecords(full, dataset.num_records(), end, &dataset);
        schema::AttributeStatistics stats =
            schema::AttributeStatistics::Compute(dataset);
        const size_t scored = linker.AddNewRecords(&stats);
        EXPECT_EQ(scored, linker.last_candidates().size());
        begin = end;
      }
      EXPECT_EQ(begin, full.num_records());
      EXPECT_EQ(linker.num_indexed(), full.num_records());
      EXPECT_TRUE(linker.Candidates() == oracle.last_candidates());
      EXPECT_EQ(linker.num_candidates(), expected.num_candidates);
      const std::vector<ScoredPair>& edges = linker.edges();
      ASSERT_EQ(edges.size(), expected.matches.size());
      for (size_t i = 0; i < edges.size(); ++i) {
        EXPECT_TRUE(edges[i].pair == expected.matches[i].pair) << "edge " << i;
        EXPECT_EQ(edges[i].score, expected.matches[i].score) << "edge " << i;
      }
      EXPECT_EQ(linker.Clusters().label_of_record,
                expected.clusters.label_of_record);
    }
  }
}

TEST(LinkerIncrementalParallelEquivalenceTest, SyntheticWorldBatchesEqualRun) {
  ExpectBatchesEqualRun(MakeWorld(7).dataset);
}

TEST(LinkerIncrementalParallelEquivalenceTest, PostingCrossingItsCapMidStream) {
  Dataset full = AcmeWorld();
  // First record count at which "acme" has more than kNameMaxPosting
  // records.
  size_t crossing = 0;
  for (size_t count = 0; crossing < full.num_records() &&
                         count <= kNameMaxPosting;
       ++crossing) {
    for (const std::string& key :
         BlockingKeys(full, static_cast<RecordIdx>(crossing), nullptr,
                      AttrRole::kName, kNameKeyMinLen)) {
      count += key == "acme" ? 1 : 0;
    }
  }
  ASSERT_LT(crossing, full.num_records());
  ASSERT_GT(crossing, full.num_records() / 7);
  // Roles no longer change from well before the crossing batch of every
  // partition, so that batch must retract pairs rather than re-link.
  const AttrRoles final_roles =
      AttrRoles::Detect(schema::AttributeStatistics::Compute(full));
  Dataset prefix;
  AppendRecords(full, 0, crossing - 50, &prefix);
  for (size_t end = crossing - 50; end <= full.num_records(); ++end) {
    AppendRecords(full, prefix.num_records(), end, &prefix);
    const AttrRoles roles =
        AttrRoles::Detect(schema::AttributeStatistics::Compute(prefix));
    for (const SourceAttr& sa : prefix.AllSourceAttrs()) {
      ASSERT_EQ(roles.RoleOf(sa), final_roles.RoleOf(sa)) << end;
    }
  }
  ExpectBatchesEqualRun(full);
}

TEST(LinkerIncrementalParallelEquivalenceTest, IndexedAttributeRoleFlip) {
  Dataset full = RoleFlipWorld();
  Dataset prefix;
  AppendRecords(full, 0, 240, &prefix);
  const SourceAttr sku{0, *prefix.FindAttr("sku")};
  EXPECT_EQ(Linker(&prefix, {}).roles().RoleOf(sku), AttrRole::kIdentifier);
  EXPECT_NE(Linker(&full, {}).roles().RoleOf(sku), AttrRole::kIdentifier);
  ExpectBatchesEqualRun(full);
}

}  // namespace
}  // namespace bdi::linkage
