// E18 — Pipeline ablations: which design choices earn their keep?
//  (a) stage substitution: replace each automated stage with its ground-
//      truth oracle and measure the fusion precision delta — the cost of
//      automating that stage;
//  (b) feature toggles: linkage feedback loop, numeric value snapping,
//      schema context in the matcher.
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "bdi/common/string_util.h"
#include "bdi/common/table.h"
#include "bdi/core/integrator.h"
#include "bdi/fusion/evaluation.h"
#include "bdi/linkage/meta_blocking.h"
#include "bdi/linkage/progressive.h"
#include "bench_util.h"

using namespace bdi;
using namespace bdi::core;

namespace {

synth::SyntheticWorld MakeWorld() {
  synth::WorldConfig config;
  config.seed = 2013;
  config.category = "camera";
  config.num_entities = 300;
  config.num_sources = 12;
  config.num_copiers = 3;
  config.source_accuracy_min = 0.75;
  config.source_accuracy_max = 0.95;
  return synth::GenerateWorld(config);
}

/// Ground-truth mediated schema (oracle alignment).
schema::MediatedSchema OracleSchema(const synth::SyntheticWorld& world) {
  schema::MediatedSchema schema;
  std::map<int, int> cluster_of_canonical;
  for (const auto& [sa, canonical] :
       world.truth.canonical_of_source_attr) {
    auto it = cluster_of_canonical.find(canonical);
    if (it == cluster_of_canonical.end()) {
      it = cluster_of_canonical
               .emplace(canonical,
                        static_cast<int>(schema.clusters.size()))
               .first;
      schema.clusters.emplace_back();
      schema.cluster_names.push_back(
          world.truth.canonical_attrs[canonical]);
    }
    schema.clusters[it->second].push_back(sa);
    schema.cluster_of[sa] = it->second;
  }
  return schema;
}

}  // namespace

int main() {
  bench::Banner("E18", "pipeline ablations",
                "oracle substitutions bound each stage's automation tax; "
                "the feedback loop and numeric snapping each buy "
                "measurable fusion precision");

  synth::SyntheticWorld world = MakeWorld();

  auto fused_precision = [&](const IntegrationReport& report) {
    fusion::PipelineMappings mappings = fusion::MapPipelineToTruth(
        report.linkage.clusters, report.schema, world.truth);
    return fusion::EvaluateFusionMapped(report.claims, report.fusion,
                                        mappings, world.truth)
        .precision;
  };

  TextTable table({"configuration", "schema F1", "link F1",
                   "fusion precision"});
  auto add = [&](const std::string& label, const IntegrationReport& report) {
    schema::SchemaQuality schema_quality = schema::EvaluateSchema(
        report.schema, world.truth.canonical_of_source_attr);
    linkage::LinkageQuality linkage_quality = linkage::EvaluateClusters(
        report.linkage.clusters.label_of_record,
        world.truth.entity_of_record);
    table.AddRow({label, FormatDouble(schema_quality.f1, 3),
                  FormatDouble(linkage_quality.f1, 3),
                  FormatDouble(fused_precision(report), 3)});
  };

  // Full automated pipeline (defaults).
  IntegrationReport automated = Integrator().Run(world.dataset);
  add("automated (default)", automated);

  // Oracle schema: replace alignment, keep automated linkage + fusion.
  {
    IntegrationReport report = automated;  // reuse stats
    report.schema = OracleSchema(world);
    report.normalizer =
        schema::ValueNormalizer::Fit(report.stats, report.schema);
    linkage::Linker linker(&world.dataset, {}, &report.schema,
                           &report.normalizer);
    report.linkage = linker.Run();
    Fuse(world.dataset, IntegratorConfig(), &linker.roles(), &report);
    add("oracle schema", report);
  }

  // Oracle linkage: replace clusters with the truth, keep the rest.
  {
    IntegrationReport report = Integrator().Run(world.dataset);
    report.linkage.clusters.label_of_record =
        world.truth.entity_of_record;
    report.linkage.clusters.num_clusters = world.truth.num_entities();
    Fuse(world.dataset, IntegratorConfig(), /*roles=*/nullptr, &report);
    add("oracle linkage", report);
  }

  // Toggles.
  {
    IntegratorConfig config;
    config.linkage_feedback = false;
    add("no feedback loop", Integrator(config).Run(world.dataset));
  }
  {
    IntegratorConfig config;
    config.numeric_snap_tolerance = 0.0;
    add("no numeric snapping", Integrator(config).Run(world.dataset));
  }
  {
    IntegratorConfig config;
    config.fusion = FusionKind::kVote;
    add("vote instead of accucopy", Integrator(config).Run(world.dataset));
  }
  {
    // The linker's identifier and token blocks, pruned by MetaBlock, then
    // scored by the progressive scheduler and clustered.
    const IntegratorConfig config;
    const Dataset& dataset = world.dataset;
    IntegrationReport report;
    AlignSchema(dataset, config, &report);
    linkage::Linker linker(&dataset, config.linker, &report.schema,
                           &report.normalizer, &report.stats);
    std::vector<linkage::Block> blocks =
        linkage::IdentifierBlocker().MakeBlocksAll(dataset, &linker.roles());
    for (linkage::Block& block :
         linkage::TokenBlocker().MakeBlocksAll(dataset, &linker.roles())) {
      blocks.push_back(std::move(block));
    }
    std::vector<linkage::CandidatePair> candidates =
        linkage::MetaBlock(dataset, blocks, linkage::MetaBlockingConfig());
    std::vector<double> scores(candidates.size());
    std::vector<uint8_t> scored(candidates.size(), 0);
    linkage::ScorePairsProgressive(
        linker.extractor(), linker.scorer(), candidates.data(),
        candidates.size(), /*comparison_budget=*/0.0, /*budget_ms=*/0.0,
        config.linker.num_threads, scores.data(), scored.data());
    std::vector<linkage::ScoredPair> matches;
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (scored[i] != 0 && scores[i] >= linker.scorer().threshold()) {
        matches.push_back(linkage::ScoredPair{candidates[i], scores[i]});
      }
    }
    report.linkage.clusters = linkage::ClusterRecords(
        dataset.num_records(), matches, config.linker.clustering);
    ApplyLinkageFeedback(dataset, config, &report);
    Fuse(dataset, config, &linker.roles(), &report);
    add("meta-blocking on", report);
  }

  table.Print("Table E18: stage substitutions and feature toggles");
  return 0;
}
