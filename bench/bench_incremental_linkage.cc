// E9 — Incremental vs batch linkage under a stream of record insertions:
// incrementally linking each arriving batch costs a small fraction of
// re-running batch linkage, at the same quality: Linker::AddNewRecords
// keeps the blocking index and edges resident, and unbudgeted its state
// equals a batch Run() over the same records. A second replay runs the
// same stream under a per-batch comparison budget (the progressive
// scheduler inside AddNewRecords), showing how much quality a
// latency-bound update keeps. With `--json`, writes
// BENCH_incremental_linkage.json with both replays' per-batch rows.
#include <string>

#include "bdi/common/string_util.h"
#include "bdi/common/table.h"
#include "bdi/common/timer.h"
#include "bdi/linkage/linkage.h"
#include "bdi/schema/attribute_stats.h"
#include "bench_util.h"

using namespace bdi;
using namespace bdi::linkage;

namespace {

/// The replayed stream: the full corpus generated up-front, fed 50%
/// initially and then 5 batches of 10% into a fresh Dataset.
struct Stream {
  explicit Stream(const synth::SyntheticWorld& full) : full_(full) {
    for (const SourceInfo& source : full.dataset.sources()) {
      dataset.AddSource(source.name);
    }
  }

  void Feed(size_t count) {
    for (size_t i = 0; i < count && cursor_ < full_.dataset.num_records();
         ++i, ++cursor_) {
      const Record& record =
          full_.dataset.record(static_cast<RecordIdx>(cursor_));
      std::vector<std::pair<std::string, std::string>> fields;
      for (const Field& field : record.fields) {
        fields.emplace_back(full_.dataset.attr_name(field.attr), field.value);
      }
      dataset.AddRecord(record.source, fields);
      truth.push_back(full_.truth.entity_of_record[cursor_]);
    }
  }

  Dataset dataset;
  std::vector<EntityId> truth;

 private:
  const synth::SyntheticWorld& full_;
  size_t cursor_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  bench::BenchMain bench_main("incremental_linkage", argc, argv);
  bench::JsonReporter& json = bench_main.json();
  bench::Banner("E9", "incremental vs batch linkage on insert streams",
                "per-batch incremental cost stays roughly flat and far "
                "below the (growing) full batch re-run, with matching "
                "quality; the budgeted replay trades a bounded recall dip "
                "for a hard per-batch comparison cap");

  synth::WorldConfig config;
  config.seed = 2014;
  config.num_entities = 800;
  config.num_sources = 14;
  synth::SyntheticWorld full = synth::GenerateWorld(config);
  size_t total = full.dataset.num_records();

  Stream stream(full);
  stream.Feed(total / 2);
  Linker incremental(&stream.dataset, {});
  WallTimer timer;
  incremental.AddNewRecords();
  double initial_ms = timer.ElapsedMillis();
  std::printf("initial load: %zu records, %.1f ms\n\n",
              stream.dataset.num_records(), initial_ms);

  // Budgeted replay alongside: same stream, initial backlog ingested
  // unbudgeted, then each live update batch may spend at most half the
  // comparisons it would need.
  Stream budgeted_stream(full);
  budgeted_stream.Feed(total / 2);
  Linker budgeted(&budgeted_stream.dataset, {});
  budgeted.AddNewRecords();
  budgeted.set_comparison_budget(0.5);

  TextTable table({"batch", "records total", "incr ms", "incr comparisons",
                   "batch-rerun ms", "speedup", "incr F1", "batch F1",
                   "50% budget F1", "deferred"});
  for (int batch = 1; batch <= 5; ++batch) {
    stream.Feed(total / 10);
    budgeted_stream.Feed(total / 10);

    // Roles follow the grown corpus' statistics, which serving's schema
    // stage computes anyway; they are not part of the linkage cost.
    schema::AttributeStatistics stats =
        schema::AttributeStatistics::Compute(stream.dataset);
    timer.Reset();
    size_t comparisons = incremental.AddNewRecords(&stats);
    double incremental_ms = timer.ElapsedMillis();
    LinkageQuality incremental_quality = EvaluateClusters(
        incremental.Clusters().label_of_record, stream.truth);

    budgeted.AddNewRecords(&stats);
    const ProgressiveStats& progressive = budgeted.last_progressive();
    LinkageQuality budgeted_quality = EvaluateClusters(
        budgeted.Clusters().label_of_record, budgeted_stream.truth);

    timer.Reset();
    Linker batch_linker(&stream.dataset, {});
    LinkageResult batch_result = batch_linker.Run();
    double batch_ms = timer.ElapsedMillis();
    LinkageQuality batch_quality = EvaluateClusters(
        batch_result.clusters.label_of_record, stream.truth);

    table.AddRow({std::to_string(batch),
                  std::to_string(stream.dataset.num_records()),
                  FormatDouble(incremental_ms, 1),
                  std::to_string(comparisons),
                  FormatDouble(batch_ms, 1),
                  FormatDouble(batch_ms / std::max(0.01, incremental_ms), 1) +
                      "x",
                  FormatDouble(incremental_quality.f1, 3),
                  FormatDouble(batch_quality.f1, 3),
                  FormatDouble(budgeted_quality.f1, 3),
                  std::to_string(progressive.num_deferred)});
    json.Add("incremental_batch_" + std::to_string(batch), incremental_ms / 1e3,
             1, static_cast<double>(comparisons) /
                    std::max(1e-9, incremental_ms / 1e3));
    json.Note("f1_batch_" + std::to_string(batch),
              "{\"incremental\": " + FormatDouble(incremental_quality.f1, 4) +
                  ", \"batch\": " + FormatDouble(batch_quality.f1, 4) +
                  ", \"budgeted_50\": " + FormatDouble(budgeted_quality.f1, 4) +
                  ", \"budget_deferred\": " +
                  std::to_string(progressive.num_deferred) + "}");
  }
  table.Print("Figure E9: per-batch update cost, incremental vs batch");
  return 0;
}
