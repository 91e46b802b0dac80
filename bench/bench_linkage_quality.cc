// E7 — Record-linkage quality by matcher x clusterer under increasing
// noise (identifier sparsity + name corruption). Identifier-anchored rules
// are robust while ids exist; learned/linear matchers degrade gracefully.
// Also measures the progressive scheduler's anytime behavior: the
// recall-vs-comparisons curve at budgets {10%, 25%, 50%, 100%}. With
// `--json`, writes BENCH_linkage_quality.json carrying the curve and
// whether the anytime target (>= 90% of full-budget recall at <= 50% of
// the comparisons) held.
#include <string>

#include "bdi/common/string_util.h"
#include "bdi/common/table.h"
#include "bdi/linkage/linkage.h"
#include "bench_util.h"

using namespace bdi;
using namespace bdi::linkage;

namespace {

synth::SyntheticWorld NoisyWorld(double noise) {
  synth::WorldConfig config;
  config.seed = 2018;
  config.category = "camera";
  config.num_entities = 400;
  config.num_sources = 12;
  config.identifier_presence_prob = 1.0 - 0.6 * noise;
  config.identifier_noise_prob = 0.10 * noise;
  config.name_noise.typo_prob = 0.05 + 0.25 * noise;
  config.name_noise.token_drop_prob = 0.05 + 0.15 * noise;
  config.name_noise.extra_token_prob = 0.15 + 0.30 * noise;
  return synth::GenerateWorld(config);
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchMain bench_main("linkage_quality", argc, argv);
  bench::JsonReporter& json = bench_main.json();
  bench::Banner("E7", "linkage quality by matcher and clusterer vs noise",
                "quality declines with noise for all variants; the "
                "identifier-anchored rule holds precision longest; center "
                "clustering trades recall for precision vs transitive "
                "closure");

  TextTable table({"noise", "scorer", "clusterer", "precision", "recall",
                   "f1", "matches"});
  for (double noise : {0.0, 0.5, 1.0}) {
    synth::SyntheticWorld world = NoisyWorld(noise);
    for (ScorerKind scorer : {ScorerKind::kRule, ScorerKind::kLinear}) {
      for (ClusteringMethod clusterer :
           {ClusteringMethod::kConnectedComponents,
            ClusteringMethod::kCenter,
            ClusteringMethod::kCorrelationPivot}) {
        LinkerConfig config;
        config.scorer = scorer;
        config.clustering = clusterer;
        Linker linker(&world.dataset, config);
        LinkageResult result = linker.Run();
        LinkageQuality quality =
            EvaluateClusters(result.clusters.label_of_record,
                             world.truth.entity_of_record);
        const char* scorer_name =
            scorer == ScorerKind::kRule ? "rule" : "linear";
        const char* cluster_name =
            clusterer == ClusteringMethod::kConnectedComponents ? "conn-comp"
            : clusterer == ClusteringMethod::kCenter             ? "center"
                                                                 : "corr-pivot";
        table.AddRow({FormatDouble(noise, 1), scorer_name, cluster_name,
                      FormatDouble(quality.precision, 3),
                      FormatDouble(quality.recall, 3),
                      FormatDouble(quality.f1, 3),
                      std::to_string(result.num_matches)});
      }
    }
  }
  table.Print("Table E7: linkage P/R/F1 by configuration and noise level");

  // E7b — anytime recall: the progressive scheduler under shrinking
  // comparison budgets on the mid-noise world. The bound ranking plus
  // closure pruning should keep most of the recall at half the
  // comparisons; a budget of 100% must land exactly on the unbudgeted
  // numbers.
  synth::SyntheticWorld world = NoisyWorld(0.5);
  TextTable anytime({"budget", "comparisons", "deferred", "recall", "f1",
                     "frac of full recall"});
  struct CurvePoint {
    std::string budget;
    size_t comparisons = 0;
    double recall = 0.0;
  };
  std::vector<CurvePoint> curve;
  auto run_budget = [&](double budget) {
    LinkerConfig config;
    config.comparison_budget = budget;
    Linker linker(&world.dataset, config);
    LinkageResult result = linker.Run();
    LinkageQuality quality =
        EvaluateClusters(result.clusters.label_of_record,
                         world.truth.entity_of_record);
    return std::make_pair(result, quality);
  };
  // The 100% run first: it anchors the "fraction of full recall" column.
  auto [full_result, full_quality] = run_budget(0.0);
  double full_recall = full_quality.recall;
  for (double budget : {0.10, 0.25, 0.50}) {
    auto [result, quality] = run_budget(budget);
    std::string label = FormatDouble(100.0 * budget, 0) + "%";
    curve.push_back({label, result.num_scheduled, quality.recall});
    anytime.AddRow({label, std::to_string(result.num_scheduled),
                    std::to_string(result.num_deferred),
                    FormatDouble(quality.recall, 3),
                    FormatDouble(quality.f1, 3),
                    FormatDouble(quality.recall / std::max(1e-9, full_recall),
                                 3)});
  }
  curve.push_back({"100%", full_result.num_scheduled, full_recall});
  anytime.AddRow({"100%", std::to_string(full_result.num_scheduled),
                  std::to_string(full_result.num_deferred),
                  FormatDouble(full_recall, 3),
                  FormatDouble(full_quality.f1, 3), "1.000"});
  anytime.Print("Table E7b: progressive anytime recall vs comparison budget");

  bool non_decreasing = true;
  for (size_t i = 1; i < curve.size(); ++i) {
    if (curve[i].comparisons < curve[i - 1].comparisons ||
        curve[i].recall + 1e-12 < curve[i - 1].recall) {
      non_decreasing = false;
    }
  }
  // Unbudgeted, the scheduler compares every prefilter survivor.
  bool full_scheduled =
      full_result.num_scheduled ==
      full_result.num_candidates - full_result.num_prefiltered;
  std::printf("100%% budget compares every prefilter survivor: %s\n",
              full_scheduled ? "yes" : "NO");
  double recall_at_half = curve[2].recall;  // the 50% point
  bool target_met = recall_at_half >= 0.9 * full_recall;
  std::printf("recall at 50%% budget: %.3f (%.1f%% of full %.3f) — target "
              "(>= 90%%) %s; curve non-decreasing: %s\n",
              recall_at_half, 100.0 * recall_at_half /
                                  std::max(1e-9, full_recall),
              full_recall, target_met ? "met" : "MISSED",
              non_decreasing ? "yes" : "NO");

  std::string curve_json = "[";
  for (size_t i = 0; i < curve.size(); ++i) {
    if (i > 0) curve_json += ", ";
    curve_json += "{\"budget\": \"" + curve[i].budget +
                  "\", \"comparisons\": " +
                  std::to_string(curve[i].comparisons) +
                  ", \"recall\": " + FormatDouble(curve[i].recall, 4) + "}";
  }
  curve_json += "]";
  json.Note("recall_curve", curve_json);
  json.Note("anytime_target_met", target_met ? "true" : "false");
  json.Note("recall_curve_non_decreasing", non_decreasing ? "true" : "false");
  json.Note("full_budget_schedules_survivors",
            full_scheduled ? "true" : "false");
  return 0;
}
