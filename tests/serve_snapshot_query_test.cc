// Query answering over a serving snapshot: the one `ask`/`find` path that
// `bdi ask`, `bdi serve` and examples/question_answering.cpp share. The
// answers must not depend on how many shards the snapshot spreads its
// entities over: `bdi ask` builds 1 shard, `bdi serve` 8 by default.
#include "bdi/serve/snapshot.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bdi/synth/world.h"

namespace bdi::serve {
namespace {

struct Fixture {
  synth::SyntheticWorld world;
  core::IntegrationReport report;
  std::shared_ptr<const Snapshot> snapshot;

  Fixture() {
    synth::WorldConfig config;
    config.seed = 1001;
    config.category = "camera";
    config.num_entities = 100;
    config.num_sources = 10;
    world = synth::GenerateWorld(config);
    report = core::Integrator().Run(world.dataset);
    snapshot = Snapshot::Build(report, world.dataset, 1, 1, 1);
  }

  /// A head entity's display name and its true value for `canonical_attr`.
  std::pair<std::string, std::string> HeadEntityAndTruth(
      const std::string& canonical_attr) {
    int attr_index = -1;
    for (size_t a = 0; a < world.truth.canonical_attrs.size(); ++a) {
      if (world.truth.canonical_attrs[a] == canonical_attr) {
        attr_index = static_cast<int>(a);
      }
    }
    EXPECT_GE(attr_index, 0);
    for (size_t e = 0; e < world.truth.num_entities(); ++e) {
      const auto& values = world.truth.true_values[e];
      if (!values[attr_index].empty()) {
        return {values[0], values[attr_index]};  // values[0] = name
      }
    }
    ADD_FAILURE() << "no entity has " << canonical_attr;
    return {"", ""};
  }
};

TEST(ServeSnapshotQueryTest, FindEntitiesRanksExactNameFirst) {
  Fixture fx;
  auto [name, truth] = fx.HeadEntityAndTruth("brand");
  std::vector<FindHit> hits = fx.snapshot->Find(name, 3);
  ASSERT_FALSE(hits.empty());
  // The top hit's representative text should share the model token.
  EXPECT_GT(hits[0].score, 0.8);
}

TEST(ServeSnapshotQueryTest, FindAttributeMatchesSynonyms) {
  Fixture fx;
  auto [name, truth] = fx.HeadEntityAndTruth("brand");
  AskAnswer answer = fx.snapshot->Ask("brand", name);
  EXPECT_GE(answer.attribute_match, 0.8);
  EXPECT_NE(answer.attribute.find("brand"), std::string::npos)
      << answer.attribute;
}

TEST(ServeSnapshotQueryTest, AskAnswersWithProvenance) {
  Fixture fx;
  auto [name, truth] = fx.HeadEntityAndTruth("brand");
  AskAnswer answer = fx.snapshot->Ask("brand", name);
  ASSERT_TRUE(answer.found()) << "no answer for '" << name << "'";
  EXPECT_EQ(answer.value, truth);
  EXPECT_FALSE(answer.support.empty());
  bool any_agrees = false;
  for (const ServedClaim& support : answer.support) {
    if (support.agrees) {
      any_agrees = true;
      EXPECT_EQ(support.value, answer.value);
    }
  }
  EXPECT_TRUE(any_agrees);
  EXPECT_GT(answer.confidence, 0.4);
}

TEST(ServeSnapshotQueryTest, UnknownAttributeYieldsNoAnswer) {
  Fixture fx;
  auto [name, truth] = fx.HeadEntityAndTruth("brand");
  AskAnswer answer = fx.snapshot->Ask("zzzzqqqq", name);
  EXPECT_FALSE(answer.found());
}

TEST(ServeSnapshotQueryTest, UnknownEntityYieldsNoAnswer) {
  Fixture fx;
  // No entity shares a token with the query, so nothing is a candidate.
  AskAnswer answer = fx.snapshot->Ask("brand", "nonexistent gizmo xq999");
  EXPECT_FALSE(answer.found());
  EXPECT_EQ(answer.cluster, kInvalidEntity);
}

// Alignment splits weight over two mediated clusters on this world,
// `itemweight` and `productwght`. The query picks `itemweight` by name,
// but the entity's records publish `weight` and `wght`, both clustered
// into `productwght`, so its value is found through the member `weight`.
TEST(ServeSnapshotQueryTest, AskFindsValueInSplitAttributeCluster) {
  synth::WorldConfig config;
  config.seed = 11;
  config.category = "camera";
  config.num_entities = 40;
  config.num_sources = 5;
  synth::SyntheticWorld world = synth::GenerateWorld(config);
  core::IntegrationReport report = core::Integrator().Run(world.dataset);
  std::shared_ptr<const Snapshot> snapshot =
      Snapshot::Build(report, world.dataset, 1, 1, 1);

  AskAnswer answer = snapshot->Ask("weight", "hraeo VY-1191 camera");
  ASSERT_TRUE(answer.found()) << "resolved to " << answer.attribute;
  EXPECT_EQ(answer.attribute, "productwght");
  EXPECT_EQ(answer.attribute_match, 1.0);  // member `weight` matches exactly
  EXPECT_EQ(answer.value.rfind("844.3", 0), 0u) << answer.value;
  EXPECT_FALSE(answer.support.empty());
}

// When the picked cluster has no cell for the entity, the fallback only
// takes clusters whose names nearly or literally match the ask. On this
// world, a 0.5 floor answered `name` from `batterylife` (score 0.56) and
// `viewfinder` from `productitemresolution` (0.63) or `brand` (0.61).
TEST(ServeSnapshotQueryTest, AskFallbackStaysOnTheAskedAttribute) {
  synth::WorldConfig config;
  config.seed = 11;
  config.category = "camera";
  config.num_entities = 40;
  config.num_sources = 5;
  synth::SyntheticWorld world = synth::GenerateWorld(config);
  core::IntegrationReport report = core::Integrator().Run(world.dataset);
  std::shared_ptr<const Snapshot> snapshot =
      Snapshot::Build(report, world.dataset, 1, 1, 1);

  size_t without_value = 0;
  for (const Record& record : world.dataset.records()) {
    const std::string& entity = record.fields[0].value;
    AskAnswer name = snapshot->Ask("name", entity);
    EXPECT_EQ(name.attribute, "name") << entity;
    AskAnswer viewfinder = snapshot->Ask("viewfinder", entity);
    EXPECT_EQ(viewfinder.attribute, "productviewfinder") << entity;
    without_value += (name.found() ? 0 : 1) + (viewfinder.found() ? 0 : 1);
  }
  // Some entities have no cell in the picked cluster, so the fallback ran.
  EXPECT_GT(without_value, 0u);
}

TEST(ServeSnapshotQueryTest, MostQueriesAnswerCorrectlyOnHeadEntities) {
  Fixture fx;
  int attr_index = -1;
  for (size_t a = 0; a < fx.world.truth.canonical_attrs.size(); ++a) {
    if (fx.world.truth.canonical_attrs[a] == "color") {
      attr_index = static_cast<int>(a);
    }
  }
  ASSERT_GE(attr_index, 0);
  int asked = 0, correct = 0;
  for (size_t e = 0; e < 20; ++e) {  // head entities
    const auto& values = fx.world.truth.true_values[e];
    if (values[attr_index].empty()) continue;
    AskAnswer answer = fx.snapshot->Ask("color", values[0]);
    if (!answer.found()) continue;
    ++asked;
    if (answer.value == values[attr_index]) ++correct;
  }
  ASSERT_GE(asked, 10);
  EXPECT_GE(static_cast<double>(correct) / asked, 0.7);
}

// Exact serialization of everything Find and Ask return for one query
// (doubles as %a hex), in the style of serve_snapshot_equivalence_test.cc.
std::string AnswerKey(const Snapshot& snapshot, const std::string& attribute,
                      const std::string& query) {
  std::string key;
  char buffer[64];
  for (const FindHit& hit : snapshot.Find(query, 5)) {
    std::snprintf(buffer, sizeof(buffer), "%d:%a:", hit.cluster, hit.score);
    key += buffer;
    key += hit.text;
    key += "|";
  }
  AskAnswer answer = snapshot.Ask(attribute, query);
  std::snprintf(buffer, sizeof(buffer), ";ask %d %a %a %a:", answer.cluster,
                answer.confidence, answer.entity_match,
                answer.attribute_match);
  key += buffer;
  key += answer.entity_name + "/" + answer.attribute + "=" + answer.value;
  for (const ServedClaim& claim : answer.support) {
    key += "," + claim.source + ":" + claim.value + (claim.agrees ? "+" : "-");
  }
  return key;
}

// Drops the second character of every token of four or more characters.
std::string TypoForm(const std::string& name) {
  std::string out;
  size_t begin = 0;
  while (begin <= name.size()) {
    size_t end = name.find(' ', begin);
    if (end == std::string::npos) end = name.size();
    std::string token = name.substr(begin, end - begin);
    if (token.size() >= 4) token.erase(1, 1);
    if (!out.empty()) out += ' ';
    out += token;
    begin = end + 1;
  }
  return out;
}

TEST(ServeSnapshotQueryTest, AnswersDoNotDependOnShardCount) {
  Fixture fx;
  std::vector<std::string> queries = {"nonexistent gizmo xq999"};
  for (size_t e = 0; e < 30; ++e) {
    const std::string& name = fx.world.truth.true_values[e][0];
    queries.push_back(name);
    queries.push_back(TypoForm(name));
    queries.push_back(name.substr(0, name.find(' ')));
  }
  std::vector<std::string> attributes = fx.world.truth.canonical_attrs;
  attributes.push_back("zzzzqqqq");

  std::vector<std::string> reference;
  size_t hits = 0;
  for (const std::string& query : queries) {
    for (const std::string& attribute : attributes) {
      reference.push_back(AnswerKey(*fx.snapshot, attribute, query));
    }
    if (!fx.snapshot->Find(query, 1).empty()) ++hits;
  }
  // The mix has both hits and misses, so the comparison covers both.
  EXPECT_GT(hits, queries.size() / 2);
  EXPECT_LT(hits, queries.size());

  for (size_t shards : {3u, 8u}) {
    std::shared_ptr<const Snapshot> sharded =
        Snapshot::Build(fx.report, fx.world.dataset, shards, 1, 0);
    ASSERT_EQ(sharded->num_shards(), shards);
    size_t i = 0;
    for (const std::string& query : queries) {
      for (const std::string& attribute : attributes) {
        ASSERT_EQ(AnswerKey(*sharded, attribute, query), reference[i++])
            << shards << " shards, ask " << attribute << " of '" << query
            << "'";
      }
    }
  }
}

}  // namespace
}  // namespace bdi::serve
