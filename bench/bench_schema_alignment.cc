// E5 — Schema alignment under increasing heterogeneity: deterministic
// single mediated schema (connected-components vs center clustering)
// against the probabilistic mediated schema's consensus (pay-as-you-go).
// main returns 1, naming the broken inequality, when the printed tables
// break the expected shape.
#include <string>
#include <utility>

#include "bdi/common/string_util.h"
#include "bdi/common/table.h"
#include "bdi/core/integrator.h"
#include "bdi/schema/linkage_refinement.h"
#include "bdi/schema/mediated_schema.h"
#include "bdi/schema/probabilistic_schema.h"
#include "bench_util.h"

using namespace bdi;
using namespace bdi::schema;
using bdi::bench::ShapeChecks;

int main() {
  bench::Banner("E5",
                "mediated-schema quality vs schema heterogeneity",
                "center clustering dominates connected components on "
                "precision; the probabilistic consensus recovers recall "
                "under high synonym/decoration noise without giving up "
                "much precision");

  ShapeChecks checks;
  // One inequality of the shape on a row: "<row>: <claim> (lhs vs rhs)".
  auto expect = [&checks](bool holds, const std::string& row,
                          const char* claim, double lhs, double rhs) {
    checks.Expect(holds, row + ": " + claim + " (" + FormatDouble(lhs, 3) +
                             " vs " + FormatDouble(rhs, 3) + ")");
  };

  TextTable table({"synonyms", "decoration", "variant", "precision",
                   "recall", "f1", "#clusters"});
  for (double synonym_prob : {0.2, 0.5, 0.8}) {
    for (double decoration_prob : {0.1, 0.4}) {
      synth::WorldConfig config;
      config.seed = 2013;
      config.category = "camera";
      config.num_entities = 250;
      config.num_sources = 12;
      config.synonym_prob = synonym_prob;
      config.decoration_prob = decoration_prob;
      synth::SyntheticWorld world = synth::GenerateWorld(config);
      AttributeStatistics stats =
          AttributeStatistics::Compute(world.dataset);
      std::vector<AttrEdge> edges = BuildCandidateEdges(stats, {});

      auto add_row = [&](const char* variant, const MediatedSchema& schema) {
        SchemaQuality quality =
            EvaluateSchema(schema, world.truth.canonical_of_source_attr);
        table.AddRow({FormatDouble(synonym_prob, 1),
                      FormatDouble(decoration_prob, 1), variant,
                      FormatDouble(quality.precision, 3),
                      FormatDouble(quality.recall, 3),
                      FormatDouble(quality.f1, 3),
                      std::to_string(schema.clusters.size())});
        return quality;
      };

      MediatedSchemaConfig cc;
      cc.method = ClusterMethod::kConnectedComponents;
      SchemaQuality conn_comp =
          add_row("conn-comp", BuildMediatedSchema(stats, edges, cc));

      MediatedSchemaConfig center_config;
      center_config.method = ClusterMethod::kCenter;
      SchemaQuality center =
          add_row("center", BuildMediatedSchema(stats, edges, center_config));

      ProbabilisticMediatedSchema pms =
          ProbabilisticMediatedSchema::Build(stats, edges, {});
      SchemaQuality probabilistic =
          add_row("probabilistic", pms.Consensus(stats, 0.5));

      // The feedback loop: run linkage on the center schema, then merge
      // clusters that agree on linked entities (the tutorial's
      // "alternating alignment and linkage" direction).
      core::IntegratorConfig pipeline_config;
      pipeline_config.linkage_feedback = true;
      core::IntegrationReport report =
          core::Integrator(pipeline_config).Run(world.dataset);
      SchemaQuality feedback = add_row("center+feedback", report.schema);

      std::string row = "synonyms ";
      row += FormatDouble(synonym_prob, 1);
      row += ", decoration ";
      row += FormatDouble(decoration_prob, 1);
      expect(center.precision > conn_comp.precision, row,
             "center precision > conn-comp precision", center.precision,
             conn_comp.precision);
      const std::pair<const char*, SchemaQuality> others[] = {
          {"conn-comp", conn_comp},
          {"center", center},
          {"probabilistic", probabilistic}};
      for (const auto& [name, other] : others) {
        std::string claim = "center+feedback f1 >= ";
        claim += name;
        claim += " f1";
        expect(feedback.f1 >= other.f1, row, claim.c_str(), feedback.f1,
               other.f1);
      }
      if (synonym_prob == 0.8) {
        expect(probabilistic.recall >= center.recall, row,
               "probabilistic recall >= center recall", probabilistic.recall,
               center.recall);
      }
    }
  }
  table.Print(
      "Table E5: alignment quality by heterogeneity level and method");

  // Precision/recall curve over the clustering threshold (center method,
  // mid heterogeneity) — the knob a deployment actually turns.
  synth::WorldConfig config;
  config.seed = 2013;
  config.category = "camera";
  config.num_entities = 250;
  config.num_sources = 12;
  synth::SyntheticWorld world = synth::GenerateWorld(config);
  AttributeStatistics stats = AttributeStatistics::Compute(world.dataset);
  std::vector<AttrEdge> edges = BuildCandidateEdges(stats, {});
  TextTable curve({"threshold", "precision", "recall", "f1"});
  double previous_precision = 0.0;
  for (double threshold : {0.5, 0.6, 0.65, 0.7, 0.75, 0.8, 0.9}) {
    MediatedSchemaConfig msc;
    msc.threshold = threshold;
    msc.method = ClusterMethod::kCenter;
    SchemaQuality quality = EvaluateSchema(
        BuildMediatedSchema(stats, edges, msc),
        world.truth.canonical_of_source_attr);
    curve.AddRow({FormatDouble(threshold, 2),
                  FormatDouble(quality.precision, 3),
                  FormatDouble(quality.recall, 3),
                  FormatDouble(quality.f1, 3)});
    std::string row = "E5b threshold ";
    row += FormatDouble(threshold, 2);
    expect(quality.precision >= previous_precision, row,
           "precision >= the previous threshold's", quality.precision,
           previous_precision);
    previous_precision = quality.precision;
  }
  curve.Print("Table E5b: precision/recall across clustering thresholds");
  return checks.Finish();
}
