#include "bdi/core/integrator.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>

#include "bdi/common/metrics.h"
#include "bdi/common/timer.h"
#include "bdi/common/trace.h"

namespace bdi::core {

std::string IntegrationReport::Summary() const {
  std::ostringstream out;
  out << "schema: " << schema.clusters.size() << " mediated attributes ("
      << schema_seconds << "s); linkage: " << linkage.clusters.num_clusters
      << " entities from " << linkage.num_candidates << " candidates, "
      << linkage.num_matches << " matches (" << linkage_seconds
      << "s); fusion: " << claims.items().size() << " items, "
      << claims.num_claims() << " claims, " << fusion.iterations
      << " iterations (" << fusion_seconds << "s)";
  return out.str();
}

std::unique_ptr<fusion::FusionMethod> MakeFusionMethod(
    const IntegratorConfig& config) {
  switch (config.fusion) {
    case FusionKind::kVote:
      return std::make_unique<fusion::VoteFusion>();
    case FusionKind::kAccu:
      return std::make_unique<fusion::AccuFusion>(config.accu);
    case FusionKind::kAccuSim: {
      fusion::AccuConfig accusim = config.accu;
      if (accusim.similarity_rho <= 0.0) accusim.similarity_rho = 0.3;
      return std::make_unique<fusion::AccuFusion>(accusim);
    }
    case FusionKind::kTruthFinder:
      return std::make_unique<fusion::TruthFinderFusion>(config.truthfinder);
    case FusionKind::kAccuCopy:
      return std::make_unique<fusion::AccuCopyFusion>(config.accu_copy);
  }
  return std::make_unique<fusion::VoteFusion>();
}

void AlignSchema(const Dataset& dataset, const IntegratorConfig& config,
                 IntegrationReport* report) {
  WallTimer timer;
  trace::StageSpan span("schema");
  span.AddItems(dataset.num_attrs());
  {
    trace::StageSpan stats_span("stats");
    stats_span.AddItems(dataset.num_records());
    report->stats = schema::AttributeStatistics::Compute(dataset);
  }
  std::vector<schema::AttrEdge> edges;
  {
    trace::StageSpan edges_span("edges");
    edges = schema::BuildCandidateEdges(report->stats, config.attr_match);
    edges_span.AddItems(edges.size());
  }
  {
    trace::StageSpan cluster_span("cluster");
    if (config.probabilistic_schema) {
      schema::ProbabilisticMediatedSchema pms =
          schema::ProbabilisticMediatedSchema::Build(report->stats, edges,
                                                     config.probabilistic);
      report->schema = pms.Consensus(report->stats, config.consensus_tau);
    } else {
      report->schema = schema::BuildMediatedSchema(report->stats, edges,
                                                   config.mediated_schema);
    }
    cluster_span.AddItems(report->schema.clusters.size());
  }
  {
    trace::StageSpan normalizer_span("normalizer");
    report->normalizer =
        schema::ValueNormalizer::Fit(report->stats, report->schema);
    normalizer_span.AddItems(report->stats.profiles().size());
  }
  report->schema_seconds = timer.ElapsedSeconds();
}

void ApplyLinkageFeedback(const Dataset& dataset,
                          const IntegratorConfig& config,
                          IntegrationReport* report) {
  if (!config.linkage_feedback) return;
  trace::StageSpan span("feedback");
  schema::LinkageRefinementReport refinement = schema::RefineSchemaWithLinkage(
      dataset, report->stats, report->schema, report->normalizer,
      report->linkage.clusters.label_of_record, config.refinement);
  report->feedback_merges = refinement.merges;
  span.AddItems(refinement.merges);
  if (refinement.merges > 0) {
    report->schema = std::move(refinement.schema);
    report->normalizer =
        schema::ValueNormalizer::Fit(report->stats, report->schema);
  }
}

void Fuse(const Dataset& dataset, const IntegratorConfig& config,
          const linkage::AttrRoles* roles, IntegrationReport* report) {
  WallTimer timer;
  trace::StageSpan span("fusion");
  report->claims = fusion::ClaimDb::FromPipeline(
      dataset, report->linkage.clusters, report->schema, report->normalizer,
      roles);
  if (config.numeric_snap_tolerance > 0.0) {
    report->claims.CanonicalizeNumericValues(config.numeric_snap_tolerance);
  }
  span.AddItems(report->claims.num_claims());
  report->fusion = MakeFusionMethod(config)->Resolve(report->claims);
  report->fusion_seconds = timer.ElapsedSeconds();
}

IntegrationReport Integrator::Run(const Dataset& dataset) const {
  IntegrationReport report;
  RunStages(dataset, &report);
  // Snapshot after the pipeline span has closed so the export includes
  // this very run's "pipeline" aggregate, not just its children.
  if (metrics::Enabled()) {
    report.metrics_json = metrics::Registry::Get().ToJson();
  }
  return report;
}

void Integrator::RunStages(const Dataset& dataset,
                           IntegrationReport* out) const {
  trace::StageSpan pipeline_span("pipeline");
  pipeline_span.AddItems(dataset.num_records());
  AlignSchema(dataset, config_, out);

  // Stage 2: record linkage, with the aligned schema strengthening the
  // matcher's value-agreement evidence. (Linker::Run opens the
  // pipeline/linkage span and its blocking/matching/clustering children.)
  WallTimer timer;
  linkage::Linker linker(&dataset, config_.linker, &out->schema,
                         &out->normalizer, &out->stats);
  out->linkage = linker.Run();
  out->linkage_seconds = timer.ElapsedSeconds();

  // Linked entities reveal attribute correspondences the name/value
  // matchers missed; fold them into the schema before fusion.
  ApplyLinkageFeedback(dataset, config_, out);
  Fuse(dataset, config_, &linker.roles(), out);
}

std::vector<IntegratedEntity> MaterializeEntities(
    const IntegrationReport& report, const Dataset& dataset,
    size_t max_entities) {
  std::unordered_map<EntityId, IntegratedEntity> by_cluster;
  for (const Record& record : dataset.records()) {
    EntityId cluster = report.linkage.clusters.label_of_record[record.idx];
    IntegratedEntity& entity = by_cluster[cluster];
    entity.cluster = cluster;
    ++entity.num_records;
  }
  for (size_t i = 0; i < report.claims.items().size(); ++i) {
    const fusion::DataItem& item = report.claims.items()[i];
    auto it = by_cluster.find(item.entity);
    if (it == by_cluster.end()) continue;
    if (item.attr < 0 ||
        static_cast<size_t>(item.attr) >= report.schema.cluster_names.size()) {
      continue;
    }
    it->second.values[report.schema.cluster_names[item.attr]] =
        report.fusion.chosen[i];
  }
  std::vector<IntegratedEntity> entities;
  entities.reserve(by_cluster.size());
  for (auto& [cluster, entity] : by_cluster) {
    entities.push_back(std::move(entity));
  }
  std::sort(entities.begin(), entities.end(),
            [](const IntegratedEntity& a, const IntegratedEntity& b) {
              if (a.num_records != b.num_records) {
                return a.num_records > b.num_records;
              }
              return a.cluster < b.cluster;
            });
  if (entities.size() > max_entities) entities.resize(max_entities);
  return entities;
}

}  // namespace bdi::core
