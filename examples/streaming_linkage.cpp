// Velocity in practice: pages keep arriving, and the integrated entity
// view must keep up without re-linking the world. Demonstrates
// Linker::AddNewRecords ingesting a stream of crawl batches: each batch is
// compared only against its blocking partners, and roles follow the grown
// corpus' statistics.
#include <cstdio>

#include "bdi/linkage/linkage.h"
#include "bdi/schema/attribute_stats.h"
#include "bdi/synth/world.h"

int main() {
  using namespace bdi;
  using namespace bdi::linkage;

  // Pre-generate the "full crawl" and replay it as a stream.
  synth::WorldConfig config;
  config.seed = 77;
  config.category = "headphone";
  config.num_entities = 300;
  config.num_sources = 10;
  synth::SyntheticWorld full = synth::GenerateWorld(config);

  Dataset live;
  for (const SourceInfo& source : full.dataset.sources()) {
    live.AddSource(source.name);
  }
  std::vector<EntityId> truth;
  size_t cursor = 0;
  auto feed = [&](size_t count) {
    size_t fed = 0;
    for (; fed < count && cursor < full.dataset.num_records();
         ++fed, ++cursor) {
      const Record& record =
          full.dataset.record(static_cast<RecordIdx>(cursor));
      std::vector<std::pair<std::string, std::string>> fields;
      for (const Field& field : record.fields) {
        fields.emplace_back(full.dataset.attr_name(field.attr), field.value);
      }
      live.AddRecord(record.source, fields);
      truth.push_back(full.truth.entity_of_record[cursor]);
    }
    return fed;
  };

  feed(full.dataset.num_records() / 3);
  Linker linker(&live, {});
  size_t comparisons = linker.AddNewRecords();
  std::printf("bootstrap: %zu pages indexed (%zu comparisons)\n",
              linker.num_indexed(), comparisons);

  for (int batch = 1; batch <= 4; ++batch) {
    size_t fed = feed(full.dataset.num_records() / 6);
    schema::AttributeStatistics stats =
        schema::AttributeStatistics::Compute(live);
    comparisons = linker.AddNewRecords(&stats);
    EntityClusters clusters = linker.Clusters();
    LinkageQuality quality =
        EvaluateClusters(clusters.label_of_record, truth);
    std::printf(
        "batch %d: +%zu pages, %zu comparisons -> %zu entities "
        "(P=%.3f R=%.3f)\n",
        batch, fed, comparisons, clusters.num_clusters, quality.precision,
        quality.recall);
  }

  return 0;
}
