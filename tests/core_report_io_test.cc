#include "bdi/core/report_io.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>

#include "bdi/serve/snapshot.h"
#include "bdi/synth/world.h"

namespace bdi::core {
namespace {

struct Fixture {
  synth::SyntheticWorld world;
  IntegrationReport report;
  std::string dir;

  Fixture() {
    synth::WorldConfig config;
    config.seed = 1301;
    config.num_entities = 80;
    config.num_sources = 6;
    world = synth::GenerateWorld(config);
    report = Integrator().Run(world.dataset);
    // One directory per test case: ctest runs cases as separate parallel
    // processes, and a shared path makes concurrent save/remove race.
    dir = ::testing::TempDir() + "/bdi_report_io_" +
          ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::create_directories(dir);
  }

  ~Fixture() { std::filesystem::remove_all(dir); }
};

TEST(ReportIoTest, RoundTripPreservesView) {
  Fixture fx;
  ASSERT_TRUE(SaveIntegration(fx.report, fx.world.dataset, fx.dir).ok());
  Result<IntegrationReport> loaded =
      LoadIntegration(fx.world.dataset, fx.dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  EXPECT_EQ(loaded->schema.clusters.size(),
            fx.report.schema.clusters.size());
  EXPECT_EQ(loaded->linkage.clusters.label_of_record,
            fx.report.linkage.clusters.label_of_record);
  ASSERT_EQ(loaded->claims.items().size(),
            fx.report.claims.items().size());
  EXPECT_EQ(loaded->fusion.chosen, fx.report.fusion.chosen);
  for (size_t i = 0; i < loaded->fusion.confidence.size(); ++i) {
    EXPECT_NEAR(loaded->fusion.confidence[i],
                fx.report.fusion.confidence[i], 1e-5);
  }
  EXPECT_EQ(loaded->claims.num_claims(), fx.report.claims.num_claims());
}

TEST(ReportIoTest, LoadedViewAnswersQueries) {
  Fixture fx;
  ASSERT_TRUE(SaveIntegration(fx.report, fx.world.dataset, fx.dir).ok());
  Result<IntegrationReport> loaded =
      LoadIntegration(fx.world.dataset, fx.dir);
  ASSERT_TRUE(loaded.ok());

  // A snapshot of the reloaded report serves what one of the original
  // report serves.
  auto original =
      serve::Snapshot::Build(fx.report, fx.world.dataset, 1, 1, 1);
  auto reloaded =
      serve::Snapshot::Build(loaded.value(), fx.world.dataset, 1, 1, 1);
  const std::string& name = fx.world.truth.true_values[0][0];
  serve::AskAnswer a = original->Ask("brand", name);
  serve::AskAnswer b = reloaded->Ask("brand", name);
  EXPECT_EQ(a.found(), b.found());
  if (a.found()) {
    EXPECT_EQ(a.value, b.value);
    EXPECT_EQ(a.support.size(), b.support.size());
  }
}

TEST(ReportIoTest, DetectsWrongCorpus) {
  Fixture fx;
  ASSERT_TRUE(SaveIntegration(fx.report, fx.world.dataset, fx.dir).ok());
  synth::WorldConfig other_config;
  other_config.seed = 9999;
  other_config.num_entities = 30;
  other_config.num_sources = 3;
  other_config.category = "book";
  synth::SyntheticWorld other = synth::GenerateWorld(other_config);
  Result<IntegrationReport> loaded = LoadIntegration(other.dataset, fx.dir);
  EXPECT_FALSE(loaded.ok());
}

TEST(ReportIoTest, MissingDirectoryFails) {
  Fixture fx;
  Result<IntegrationReport> loaded =
      LoadIntegration(fx.world.dataset, "/no/such/dir");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

// Overwrites one saved CSV with arbitrary content and asserts the load
// surfaces a Status (never a crash/abort).
void CorruptAndExpectStatus(const Fixture& fx, const std::string& file,
                            const std::string& content) {
  {
    std::ofstream out(fx.dir + "/" + file);
    out << content;
  }
  Result<IntegrationReport> loaded =
      LoadIntegration(fx.world.dataset, fx.dir);
  EXPECT_FALSE(loaded.ok()) << file << " <- " << content;
}

TEST(ReportIoTest, CorruptSchemaSurfacesStatus) {
  Fixture fx;
  ASSERT_TRUE(SaveIntegration(fx.report, fx.world.dataset, fx.dir).ok());
  CorruptAndExpectStatus(fx, "schema.csv", "not,a,schema\n");
  CorruptAndExpectStatus(fx, "schema.csv",
                         "cluster,name,source,attribute\nx,n,0,brand\n");
  // A corrupt cluster id must not drive a multi-gigabyte resize.
  CorruptAndExpectStatus(
      fx, "schema.csv",
      "cluster,name,source,attribute\n99999999999,n,0,brand\n");
  CorruptAndExpectStatus(fx, "schema.csv",
                         "cluster,name,source,attribute\n-3,n,0,brand\n");
  // Source id outside the corpus.
  CorruptAndExpectStatus(fx, "schema.csv",
                         "cluster,name,source,attribute\n0,n,999,brand\n");
}

TEST(ReportIoTest, CorruptEntitiesSurfacesStatus) {
  Fixture fx;
  ASSERT_TRUE(SaveIntegration(fx.report, fx.world.dataset, fx.dir).ok());
  CorruptAndExpectStatus(fx, "entities.csv", "record,entity\n0\n");
  std::string giant = "record,entity\n";
  for (size_t r = 0; r < fx.world.dataset.num_records(); ++r) {
    giant += std::to_string(r) + ",99999999999\n";
  }
  CorruptAndExpectStatus(fx, "entities.csv", giant);
}

TEST(ReportIoTest, CorruptClaimsSurfacesStatus) {
  Fixture fx;
  ASSERT_TRUE(SaveIntegration(fx.report, fx.world.dataset, fx.dir).ok());
  CorruptAndExpectStatus(fx, "claims.csv",
                         "entity,attribute_cluster,source,value\n0,0,999,x\n");
  CorruptAndExpectStatus(fx, "claims.csv",
                         "entity,attribute_cluster,source,value\n0,0,-1,x\n");
  CorruptAndExpectStatus(
      fx, "claims.csv",
      "entity,attribute_cluster,source,value\n\"unterminated,0,0,x\n");
}

TEST(ReportIoTest, CorruptFusedSurfacesStatus) {
  Fixture fx;
  ASSERT_TRUE(SaveIntegration(fx.report, fx.world.dataset, fx.dir).ok());
  CorruptAndExpectStatus(
      fx, "fused.csv",
      "entity,attribute_cluster,value,confidence\n0,0,x,notanumber\n");
  CorruptAndExpectStatus(fx, "fused.csv",
                         "entity,attribute_cluster,value,confidence\n"
                         "-5,0,x,0.5\n");
}

TEST(ReportIoTest, MaterializeEntitiesWorksOnLoadedReport) {
  Fixture fx;
  ASSERT_TRUE(SaveIntegration(fx.report, fx.world.dataset, fx.dir).ok());
  Result<IntegrationReport> loaded =
      LoadIntegration(fx.world.dataset, fx.dir);
  ASSERT_TRUE(loaded.ok());
  auto original_entities =
      MaterializeEntities(fx.report, fx.world.dataset, 5);
  auto loaded_entities =
      MaterializeEntities(loaded.value(), fx.world.dataset, 5);
  ASSERT_EQ(original_entities.size(), loaded_entities.size());
  for (size_t i = 0; i < original_entities.size(); ++i) {
    EXPECT_EQ(original_entities[i].values, loaded_entities[i].values);
  }
}

}  // namespace
}  // namespace bdi::core
