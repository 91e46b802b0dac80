// E6 — Blocking trade-off: pairs completeness vs reduction ratio for each
// blocker, plus the effect of meta-blocking's weighting/pruning schemes on
// a redundancy-heavy token block collection. With --json, writes
// BENCH_blocking.json: per-blocker pair-generation wall time, the blocking
// graph build wall time (serial vs --threads), and the pipeline metrics
// snapshot carrying the pairs generated/pruned counters. Exits 1 when the
// serial and parallel blocking graphs or match lists differ.
#include <memory>

#include "bdi/common/metrics.h"
#include "bdi/common/string_util.h"
#include "bdi/common/table.h"
#include "bdi/common/timer.h"
#include "bdi/linkage/blocking.h"
#include "bdi/linkage/linkage.h"
#include "bdi/linkage/meta_blocking.h"
#include "bench_util.h"

using namespace bdi;
using namespace bdi::linkage;

int main(int argc, char** argv) {
  bench::Banner("E6", "blocking quality/efficiency trade-off",
                "identifier blocking: near-perfect reduction at high "
                "completeness; token blocking: best completeness, most "
                "candidates; meta-blocking prunes most comparisons while "
                "keeping the bulk of completeness");

  bench::BenchMain bench_main("blocking", argc, argv);
  size_t threads = bench_main.threads();
  bench::JsonReporter& json = bench_main.json();
  if (json.enabled()) metrics::SetEnabled(true);

  synth::WorldConfig config;
  config.seed = 77;
  config.category = "camera";
  config.num_entities = 1500;
  config.num_sources = 16;
  synth::SyntheticWorld world = synth::GenerateWorld(config);
  schema::AttributeStatistics stats =
      schema::AttributeStatistics::Compute(world.dataset);
  AttrRoles roles = AttrRoles::Detect(stats);
  std::printf("corpus: %zu records across %zu sources\n\n",
              world.dataset.num_records(), world.dataset.num_sources());

  TextTable table({"blocker", "candidates", "pairs completeness",
                   "reduction ratio", "time ms"});
  std::vector<std::pair<std::string, std::unique_ptr<Blocker>>> blockers;
  blockers.emplace_back("identifier", std::make_unique<IdentifierBlocker>());
  blockers.emplace_back("token", std::make_unique<TokenBlocker>());
  blockers.emplace_back("sorted-neighborhood",
                        std::make_unique<SortedNeighborhoodBlocker>());
  blockers.emplace_back("canopy", std::make_unique<CanopyBlocker>());

  std::vector<Block> token_blocks;
  for (const auto& [name, blocker] : blockers) {
    WallTimer timer;
    std::vector<Block> blocks = blocker->MakeBlocksAll(world.dataset, &roles);
    std::vector<CandidatePair> pairs = BlocksToPairs(world.dataset, blocks);
    double seconds = timer.ElapsedSeconds();
    BlockingQuality quality =
        EvaluateBlocking(world.dataset, pairs, world.truth.entity_of_record);
    table.AddRow({name, std::to_string(quality.num_candidates),
                  FormatDouble(quality.pairs_completeness, 3),
                  FormatDouble(quality.reduction_ratio, 4),
                  FormatDouble(seconds * 1000.0, 1)});
    json.Add("blocking/" + name + "/pairs", seconds, threads,
             seconds > 0.0 ? static_cast<double>(pairs.size()) / seconds
                           : 0.0);
    if (name == "token") token_blocks = std::move(blocks);
  }
  table.Print("Figure E6: pairs completeness vs reduction ratio");

  // Identity gates: the graph and matching blocks below each compare a
  // serial run with the thread budget's, and any mismatch fails the run.
  bool all_identical = true;

  // Blocking graph build (meta-blocking's dominant cost), serial vs the
  // thread budget — same chunking either way, so the graphs are identical.
  {
    WallTimer timer;
    std::vector<WeightedPair> serial_graph = BuildBlockingGraph(
        world.dataset, token_blocks, MetaBlockingScheme::kArcs,
        /*allow_same_source=*/false, /*num_threads=*/1);
    double serial_seconds = timer.ElapsedSeconds();
    timer.Reset();
    std::vector<WeightedPair> parallel_graph = BuildBlockingGraph(
        world.dataset, token_blocks, MetaBlockingScheme::kArcs,
        /*allow_same_source=*/false, threads);
    double parallel_seconds = timer.ElapsedSeconds();
    bool identical = serial_graph.size() == parallel_graph.size();
    for (size_t i = 0; identical && i < serial_graph.size(); ++i) {
      identical = serial_graph[i].pair == parallel_graph[i].pair &&
                  serial_graph[i].weight == parallel_graph[i].weight;
    }
    std::printf("\ngraph build (ARCS, %zu edges): serial %.1f ms, "
                "%zu threads %.1f ms, identical: %s\n",
                serial_graph.size(), serial_seconds * 1000.0, threads,
                parallel_seconds * 1000.0, identical ? "yes" : "NO");
    json.Add("blocking/graph_build", serial_seconds, 1,
             serial_seconds > 0.0
                 ? static_cast<double>(serial_graph.size()) / serial_seconds
                 : 0.0);
    json.Add("blocking/graph_build", parallel_seconds, threads,
             parallel_seconds > 0.0
                 ? static_cast<double>(parallel_graph.size()) /
                       parallel_seconds
                 : 0.0);
    json.Note("graph_identical_output", identical ? "true" : "false");
    all_identical = all_identical && identical;
  }

  // Matching identity: the scheduler's bound pass and survivor pass must
  // produce the same match list and scores serially and across the thread
  // budget. Any divergence in the chunking or the pooled scratch shows up
  // here as identical: NO. (Bitwise agreement with a per-pair Extract + Score
  // loop is pinned by the linkage equivalence tests.)
  {
    auto run_matching = [&](size_t num_threads) {
      LinkerConfig linker_config;
      linker_config.num_threads = num_threads;
      Linker linker(&world.dataset, linker_config);
      return linker.Run();
    };
    LinkageResult serial = run_matching(1);
    LinkageResult parallel = run_matching(threads);
    bool identical = serial.matches.size() == parallel.matches.size();
    for (size_t i = 0; identical && i < serial.matches.size(); ++i) {
      identical = serial.matches[i].pair == parallel.matches[i].pair &&
                  serial.matches[i].score == parallel.matches[i].score;
    }
    std::printf("\nmatching (%zu candidates, %zu matches): serial %.1f ms, "
                "%zu threads %.1f ms, identical: %s\n",
                serial.num_candidates, serial.matches.size(),
                serial.matching_seconds * 1000.0, threads,
                parallel.matching_seconds * 1000.0,
                identical ? "yes" : "NO");
    json.Add("matching", serial.matching_seconds, 1,
             serial.matching_seconds > 0.0
                 ? static_cast<double>(serial.num_candidates) /
                       serial.matching_seconds
                 : 0.0);
    json.Add("matching", parallel.matching_seconds, threads,
             parallel.matching_seconds > 0.0
                 ? static_cast<double>(parallel.num_candidates) /
                       parallel.matching_seconds
                 : 0.0);
    json.Note("matching_identical_output", identical ? "true" : "false");
    all_identical = all_identical && identical;
  }

  TextTable meta({"scheme", "pruning", "candidates", "pairs completeness",
                  "reduction ratio"});
  for (auto scheme : {MetaBlockingScheme::kCommonBlocks,
                      MetaBlockingScheme::kJaccard,
                      MetaBlockingScheme::kArcs}) {
    for (auto pruning : {MetaBlockingPruning::kWeightEdge,
                         MetaBlockingPruning::kCardinalityNode}) {
      MetaBlockingConfig meta_config;
      meta_config.scheme = scheme;
      meta_config.pruning = pruning;
      std::vector<CandidatePair> pairs =
          MetaBlock(world.dataset, token_blocks, meta_config);
      BlockingQuality quality = EvaluateBlocking(
          world.dataset, pairs, world.truth.entity_of_record);
      const char* scheme_name =
          scheme == MetaBlockingScheme::kCommonBlocks ? "CBS"
          : scheme == MetaBlockingScheme::kJaccard    ? "JS"
                                                      : "ARCS";
      const char* pruning_name =
          pruning == MetaBlockingPruning::kWeightEdge ? "WEP" : "CNP";
      meta.AddRow({scheme_name, pruning_name,
                   std::to_string(quality.num_candidates),
                   FormatDouble(quality.pairs_completeness, 3),
                   FormatDouble(quality.reduction_ratio, 4)});
    }
  }
  meta.Print("Table E6b: meta-blocking restructuring of the token blocks");
  bench::AttachMetricsSnapshot(json);
  return all_identical ? 0 : 1;
}
