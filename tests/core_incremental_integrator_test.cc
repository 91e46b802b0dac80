#include "bdi/core/incremental_integrator.h"

#include <gtest/gtest.h>

#include "bdi/fusion/evaluation.h"
#include "bdi/fusion/fusion.h"
#include "bdi/synth/world.h"

namespace bdi::core {
namespace {

struct Stream {
  synth::SyntheticWorld full;
  Dataset live;
  std::vector<EntityId> truth;
  size_t cursor = 0;

  explicit Stream(uint64_t seed = 1101) {
    synth::WorldConfig config;
    config.seed = seed;
    config.num_entities = 150;
    config.num_sources = 10;
    full = synth::GenerateWorld(config);
    for (const SourceInfo& source : full.dataset.sources()) {
      live.AddSource(source.name);
    }
  }

  void Feed(size_t count) {
    for (size_t i = 0; i < count && cursor < full.dataset.num_records();
         ++i, ++cursor) {
      const Record& record =
          full.dataset.record(static_cast<RecordIdx>(cursor));
      std::vector<std::pair<std::string, std::string>> fields;
      for (const Field& field : record.fields) {
        fields.emplace_back(full.dataset.attr_name(field.attr),
                            field.value);
      }
      live.AddRecord(record.source, fields);
      truth.push_back(full.truth.entity_of_record[cursor]);
    }
  }
};

TEST(IncrementalIntegratorTest, BootstrapMatchesBatchQuality) {
  Stream stream;
  stream.Feed(stream.full.dataset.num_records());
  IncrementalIntegrator incremental(&stream.live);
  incremental.Refresh();

  linkage::LinkageQuality quality = linkage::EvaluateClusters(
      incremental.report().linkage.clusters.label_of_record, stream.truth);
  EXPECT_GE(quality.f1, 0.85);
  EXPECT_EQ(incremental.num_integrated_records(),
            stream.live.num_records());
}

TEST(IncrementalIntegratorTest, StaysFreshAcrossBatches) {
  Stream stream;
  size_t total = stream.full.dataset.num_records();
  stream.Feed(total / 2);
  IncrementalIntegrator incremental(&stream.live);
  incremental.Refresh();

  for (int batch = 0; batch < 4; ++batch) {
    stream.Feed(total / 8);
    size_t comparisons = incremental.Refresh();
    EXPECT_GT(comparisons, 0u);
    EXPECT_EQ(incremental.num_integrated_records(),
              stream.live.num_records());
    // The view covers every record and fusion answers exist.
    EXPECT_EQ(
        incremental.report().linkage.clusters.label_of_record.size(),
        stream.live.num_records());
    EXPECT_EQ(incremental.report().fusion.chosen.size(),
              incremental.report().claims.items().size());
  }
  linkage::LinkageQuality quality = linkage::EvaluateClusters(
      incremental.report().linkage.clusters.label_of_record, stream.truth);
  EXPECT_GE(quality.f1, 0.8);

  // Fusion quality close to a from-scratch batch run on the same corpus.
  // The replayed corpus re-interns attribute ids, so translate the ground
  // truth before id-keyed evaluation.
  GroundTruth live_truth =
      RemapGroundTruth(stream.full.truth, stream.full.dataset, stream.live);
  fusion::PipelineMappings incremental_mappings =
      fusion::MapPipelineToTruth(
          incremental.report().linkage.clusters,
          incremental.report().schema, live_truth);
  double incremental_precision =
      fusion::EvaluateFusionMapped(incremental.report().claims,
                                   incremental.report().fusion,
                                   incremental_mappings, live_truth)
          .precision;
  IntegrationReport batch = Integrator().Run(stream.live);
  fusion::PipelineMappings batch_mappings = fusion::MapPipelineToTruth(
      batch.linkage.clusters, batch.schema, live_truth);
  double batch_precision =
      fusion::EvaluateFusionMapped(batch.claims, batch.fusion,
                                   batch_mappings, live_truth)
          .precision;
  EXPECT_GE(batch_precision, 0.7);  // guards the remapping itself
  EXPECT_GE(incremental_precision, batch_precision - 0.05);
}

TEST(IncrementalIntegratorTest, RefreshUsesConfiguredFusionMethod) {
  Stream stream;
  stream.Feed(stream.full.dataset.num_records() / 2);
  IntegratorConfig config;
  config.fusion = FusionKind::kVote;
  IncrementalIntegrator incremental(&stream.live, config);
  incremental.Refresh();
  stream.Feed(stream.full.dataset.num_records() / 8);
  incremental.Refresh();

  const IntegrationReport& report = incremental.report();
  ASSERT_FALSE(report.claims.items().empty());
  fusion::FusionResult vote = fusion::VoteFusion().Resolve(report.claims);
  EXPECT_EQ(report.fusion.chosen, vote.chosen);
  EXPECT_EQ(report.fusion.confidence, vote.confidence);
  EXPECT_EQ(report.fusion.source_accuracy, vote.source_accuracy);
  EXPECT_EQ(report.fusion.iterations, vote.iterations);
}

TEST(IncrementalIntegratorTest, RefreshUsesProbabilisticSchema) {
  Stream stream;
  stream.Feed(stream.full.dataset.num_records() / 2);
  IntegratorConfig config;
  config.probabilistic_schema = true;
  // Feedback merges would rewrite the aligned schema; keep it as aligned.
  config.linkage_feedback = false;
  IncrementalIntegrator incremental(&stream.live, config);
  incremental.Refresh();

  const IntegrationReport& report = incremental.report();
  schema::MediatedSchema expected =
      schema::ProbabilisticMediatedSchema::Build(
          report.stats,
          schema::BuildCandidateEdges(report.stats, config.attr_match),
          config.probabilistic)
          .Consensus(report.stats, config.consensus_tau);
  EXPECT_EQ(report.schema.cluster_names, expected.cluster_names);
  EXPECT_TRUE(report.schema.clusters == expected.clusters);
}

}  // namespace
}  // namespace bdi::core
