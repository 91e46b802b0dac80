// E8 — Linkage scalability on the shared executor:
// runtime and throughput as the corpus grows, and the per-stage breakdown
// (blocking / matching / clustering). Matching parallelizes across the
// thread pool; the thread sweep shows the (machine-dependent) speedup.
// With `--json`, writes BENCH_linkage_scaling.json carrying the scaling
// rows, the thread sweep, and the pipeline metrics snapshot (interner
// size, prefilter counts). Exits 1 when a thread count's matches differ
// from the serial run's.
#include <thread>

#include "bdi/common/executor.h"
#include "bdi/common/string_util.h"
#include "bdi/common/table.h"
#include "bdi/linkage/linkage.h"
#include "bench_util.h"

using namespace bdi;
using namespace bdi::linkage;

int main(int argc, char** argv) {
  bench::BenchMain bench_main("linkage_scaling", argc, argv);
  Executor::Configure(bench_main.threads());
  bench::JsonReporter& json = bench_main.json();
  // Metrics ride along in the JSON; instrumentation is bitwise-neutral.
  if (json.enabled()) metrics::SetEnabled(true);
  bench::Banner("E8", "linkage scalability (shared executor)",
                "runtime grows near-linearly with candidate count (blocking "
                "keeps the pair space sparse); matching dominates and "
                "parallelizes across threads");

  TextTable table({"records", "candidates", "block ms", "match ms",
                   "cluster ms", "total ms", "records/s"});
  for (int entities : {250, 500, 1000, 2000}) {
    synth::WorldConfig config;
    config.seed = 7;
    config.num_entities = entities;
    config.num_sources = 14;
    synth::SyntheticWorld world = synth::GenerateWorld(config);
    Linker linker(&world.dataset, {});
    LinkageResult result = linker.Run();
    double total =
        result.blocking_seconds + result.matching_seconds +
        result.clustering_seconds;
    double records_per_sec =
        static_cast<double>(world.dataset.num_records()) /
        std::max(1e-9, total);
    table.AddRow(
        {std::to_string(world.dataset.num_records()),
         std::to_string(result.num_candidates),
         FormatDouble(1000 * result.blocking_seconds, 1),
         FormatDouble(1000 * result.matching_seconds, 1),
         FormatDouble(1000 * result.clustering_seconds, 1),
         FormatDouble(1000 * total, 1), FormatDouble(records_per_sec, 0)});
    json.Add("linkage_total_" + std::to_string(entities) + "_entities",
             total, Executor::Get().num_threads(), records_per_sec);
    json.Add("linkage_matching_" + std::to_string(entities) + "_entities",
             result.matching_seconds, Executor::Get().num_threads(),
             static_cast<double>(result.num_candidates) /
                 std::max(1e-9, result.matching_seconds));
  }
  table.Print("Figure E8: runtime vs corpus size");

  // Thread sweep on a fixed corpus (speedup depends on available cores:
  // this machine reports hardware_concurrency below).
  synth::WorldConfig config;
  config.seed = 7;
  config.num_entities = 1500;
  config.num_sources = 14;
  synth::SyntheticWorld world = synth::GenerateWorld(config);
  TextTable threads_table({"threads", "match ms", "speedup"});
  double baseline = 0.0;
  // Identity gate: every thread count must reproduce the serial run's
  // match list and scores bit for bit (identical_output below).
  // Agreement with a per-pair Extract + Score loop is pinned by the
  // linkage equivalence tests.
  LinkageResult serial;
  bool identical_output = true;
  auto same_matches = [](const LinkageResult& x, const LinkageResult& y) {
    if (x.matches.size() != y.matches.size()) return false;
    for (size_t i = 0; i < x.matches.size(); ++i) {
      if (x.matches[i].pair != y.matches[i].pair ||
          x.matches[i].score != y.matches[i].score) {
        return false;
      }
    }
    return true;
  };
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    LinkerConfig linker_config;
    linker_config.num_threads = threads;
    Linker linker(&world.dataset, linker_config);
    LinkageResult result = linker.Run();
    if (threads == 1) {
      serial = result;
      baseline = result.matching_seconds;
    } else {
      identical_output = identical_output && same_matches(serial, result);
    }
    threads_table.AddRow(
        {std::to_string(threads),
         FormatDouble(1000 * result.matching_seconds, 1),
         FormatDouble(baseline / std::max(1e-9, result.matching_seconds),
                      2)});
    json.Add("matching_sweep_" + std::to_string(threads) + "_threads",
             result.matching_seconds, threads,
             static_cast<double>(result.num_candidates) /
                 std::max(1e-9, result.matching_seconds));
  }
  threads_table.Print("Figure E8b: matching-stage thread scaling");
  std::printf("matching identical across thread counts: %s\n",
              identical_output ? "yes" : "NO");
  json.Note("identical_output", identical_output ? "true" : "false");
  std::printf("hardware_concurrency on this machine: %u\n",
              std::thread::hardware_concurrency());
  bench::AttachMetricsSnapshot(json);
  return identical_output ? 0 : 1;
}
