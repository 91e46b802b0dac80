#ifndef BDI_CORE_INTEGRATOR_H_
#define BDI_CORE_INTEGRATOR_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bdi/fusion/accu.h"
#include "bdi/fusion/accu_copy.h"
#include "bdi/fusion/claims.h"
#include "bdi/fusion/fusion.h"
#include "bdi/fusion/truthfinder.h"
#include "bdi/linkage/linkage.h"
#include "bdi/model/dataset.h"
#include "bdi/schema/linkage_refinement.h"
#include "bdi/schema/mediated_schema.h"
#include "bdi/schema/probabilistic_schema.h"
#include "bdi/schema/value_normalizer.h"

namespace bdi::core {

/// Which truth-discovery model resolves conflicts at the end of the
/// pipeline.
enum class FusionKind { kVote, kAccu, kAccuSim, kTruthFinder, kAccuCopy };

/// Configuration of the full integration pipeline. Defaults are sensible
/// for product-specification-style corpora.
struct IntegratorConfig {
  // Schema alignment.
  schema::AttrMatchConfig attr_match;
  schema::MediatedSchemaConfig mediated_schema;
  /// Use the probabilistic mediated schema's consensus clustering instead
  /// of single-threshold clustering (pay-as-you-go alignment).
  bool probabilistic_schema = false;
  schema::ProbabilisticSchemaConfig probabilistic;
  double consensus_tau = 0.5;

  // Record linkage. Note the pipeline runs linkage with the aligned schema
  // available to the matcher (linkage and alignment reinforce each other).
  linkage::LinkerConfig linker;

  /// Feedback loop: after linkage, merge schema clusters that agree on
  /// linked entities' values (recovers synonym pairs name similarity
  /// missed), then refit the normalizer before fusion.
  bool linkage_feedback = true;
  schema::LinkageRefinementConfig refinement;

  // Data fusion.
  FusionKind fusion = FusionKind::kAccuCopy;
  fusion::AccuConfig accu;
  fusion::TruthFinderConfig truthfinder;
  fusion::AccuCopyConfig accu_copy;
  /// Snap near-equal numeric claims before fusion (see
  /// ClaimDb::CanonicalizeNumericValues).
  double numeric_snap_tolerance = 0.02;
};

/// Everything the pipeline produced, stage by stage.
struct IntegrationReport {
  schema::AttributeStatistics stats;
  schema::MediatedSchema schema;
  schema::ValueNormalizer normalizer;
  linkage::LinkageResult linkage;
  /// Schema-cluster merges contributed by the linkage feedback loop.
  size_t feedback_merges = 0;
  fusion::ClaimDb claims;
  fusion::FusionResult fusion;

  double schema_seconds = 0.0;
  double linkage_seconds = 0.0;
  double fusion_seconds = 0.0;

  /// Observability hook: when metrics collection is enabled
  /// (metrics::SetEnabled(true)) the pipeline fills this with the
  /// process-wide metrics/trace snapshot serialized as JSON, taken right
  /// after fusion finishes (schema in docs/OBSERVABILITY.md). Empty when
  /// collection is disabled. Purely additive — pipeline outputs are
  /// bitwise-identical with metrics on or off.
  std::string metrics_json;

  /// One-paragraph human-readable summary.
  std::string Summary() const;
};

/// One fused entity: the chosen value per mediated-schema attribute.
struct IntegratedEntity {
  EntityId cluster = kInvalidEntity;
  size_t num_records = 0;
  /// mediated attribute name -> fused value
  std::map<std::string, std::string> values;
};

// The pipeline's shared stages. Integrator::Run calls them around
// Linker::Run, IncrementalIntegrator::Refresh around
// Linker::AddNewRecords; each opens its trace span under the
// caller's parent span ("pipeline" or "refresh").

/// Stage 1, bottom-up schema alignment (span "schema"): attribute
/// statistics, candidate edges, single-threshold or (with
/// `config.probabilistic_schema`) probabilistic consensus clustering, and
/// the value normalizer. Sets `stats`, `schema`, `normalizer` and
/// `schema_seconds` of `report`.
void AlignSchema(const Dataset& dataset, const IntegratorConfig& config,
                 IntegrationReport* report);

/// The linkage feedback step (span "feedback"), run only when
/// `config.linkage_feedback` is set: merges schema clusters that agree on
/// the values of linked entities, then refits the normalizer. Reads
/// `report->linkage.clusters`; sets `feedback_merges` and, on a merge,
/// `schema` and `normalizer`.
void ApplyLinkageFeedback(const Dataset& dataset,
                          const IntegratorConfig& config,
                          IntegrationReport* report);

/// Stage 3, data fusion (span "fusion"): builds the claim database from
/// the linked, aligned, normalized records (ClaimDb::FromPipeline; claims
/// on attributes `roles` marks as name/identifier are dropped, and none
/// are when `roles` is null), snaps near-equal numeric claims, and
/// resolves them with MakeFusionMethod(config). Sets `claims`, `fusion`
/// and `fusion_seconds` of `report`.
void Fuse(const Dataset& dataset, const IntegratorConfig& config,
          const linkage::AttrRoles* roles, IntegrationReport* report);

/// The truth-discovery model `config.fusion` names, configured from
/// `config`.
std::unique_ptr<fusion::FusionMethod> MakeFusionMethod(
    const IntegratorConfig& config);

/// The end-to-end big-data-integration pipeline: schema alignment ->
/// record linkage -> data fusion, as one call.
class Integrator {
 public:
  explicit Integrator(const IntegratorConfig& config = {})
      : config_(config) {}

  /// Runs all three stages over the corpus.
  IntegrationReport Run(const Dataset& dataset) const;

  const IntegratorConfig& config() const { return config_; }

 private:
  /// The shared stages around linkage::Linker, wrapped in the "pipeline"
  /// trace span; Run() takes the metrics snapshot after the span closes.
  void RunStages(const Dataset& dataset, IntegrationReport* out) const;

  IntegratorConfig config_;
};

/// Joins the report back into browsable entities (largest clusters first;
/// at most `max_entities`).
std::vector<IntegratedEntity> MaterializeEntities(
    const IntegrationReport& report, const Dataset& dataset,
    size_t max_entities = 100);

}  // namespace bdi::core

#endif  // BDI_CORE_INTEGRATOR_H_
