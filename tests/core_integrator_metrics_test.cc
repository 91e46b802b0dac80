// Observability must never change what the pipeline computes: the same
// corpus integrated with metrics off and with metrics on has to produce
// bitwise-identical linkage and fusion output, and the enabled run has to
// carry a populated snapshot in the report.
#include <gtest/gtest.h>

#include <string>

#include "bdi/common/metrics.h"
#include "bdi/core/integrator.h"
#include "bdi/synth/world.h"

namespace bdi::core {
namespace {

synth::SyntheticWorld MakeWorld() {
  synth::WorldConfig config;
  config.seed = 211;
  config.category = "camera";
  config.num_entities = 120;
  config.num_sources = 10;
  config.num_copiers = 2;
  config.source_accuracy_min = 0.7;
  config.source_accuracy_max = 0.95;
  return synth::GenerateWorld(config);
}

TEST(IntegratorMetricsTest, MetricsOnAndOffProduceIdenticalOutput) {
  synth::SyntheticWorld world = MakeWorld();

  metrics::SetEnabled(false);
  IntegrationReport off = Integrator().Run(world.dataset);
  EXPECT_TRUE(off.metrics_json.empty());

  metrics::Registry::Get().Reset();
  metrics::SetEnabled(true);
  IntegrationReport on = Integrator().Run(world.dataset);
  metrics::SetEnabled(false);
  metrics::Registry::Get().Reset();

  // Bitwise neutrality: every decision the pipeline made is identical.
  EXPECT_EQ(off.linkage.clusters.label_of_record,
            on.linkage.clusters.label_of_record);
  EXPECT_EQ(off.linkage.num_matches, on.linkage.num_matches);
  EXPECT_EQ(off.schema.cluster_names, on.schema.cluster_names);
  EXPECT_EQ(off.fusion.chosen, on.fusion.chosen);
  EXPECT_EQ(off.fusion.source_accuracy, on.fusion.source_accuracy);
  EXPECT_EQ(off.fusion.iterations, on.fusion.iterations);

  // The enabled run carries the snapshot, with the headline content the
  // operations surface promises (docs/OBSERVABILITY.md).
  ASSERT_FALSE(on.metrics_json.empty());
  for (const char* expected :
       {"\"schema_version\": 1", "pipeline/linkage/blocking",
        "pipeline/fusion", "pipeline/schema", "pipeline/schema/stats",
        "pipeline/schema/edges", "pipeline/schema/cluster",
        "pipeline/schema/normalizer",
        "bdi.linkage.blocking.pairs.generated",
        "bdi.linkage.candidate_pairs", "bdi.fusion.em.iterations",
        "bdi.fusion.values.interned"}) {
    EXPECT_NE(on.metrics_json.find(expected), std::string::npos)
        << "snapshot missing " << expected;
  }
}

}  // namespace
}  // namespace bdi::core
