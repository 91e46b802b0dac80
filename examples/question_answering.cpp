// Pay-as-you-go question answering over the integrated dataspace: ask
// "<attribute> of <product>" and get the fused value with provenance —
// which sources agree, which dissent, and how confident the truth model
// is. One of the applications the tutorial's introduction motivates.
#include <cstdio>

#include "bdi/serve/snapshot.h"
#include "bdi/synth/world.h"

int main() {
  using namespace bdi;

  synth::WorldConfig config;
  config.seed = 33;
  config.category = "headphone";
  config.num_entities = 150;
  config.num_sources = 12;
  config.num_copiers = 2;
  synth::SyntheticWorld world = synth::GenerateWorld(config);

  core::Integrator integrator;
  core::IntegrationReport report = integrator.Run(world.dataset);
  // Answers come from the same snapshot `bdi serve` queries, on 1 shard.
  auto snapshot = serve::Snapshot::Build(report, world.dataset, 1, 1, 1);
  std::printf("%s\n\n", report.Summary().c_str());

  // Ask about the three best-covered products.
  auto entities = core::MaterializeEntities(report, world.dataset, 3);
  const char* questions[] = {"impedance", "weight", "color", "type"};
  for (const auto& entity : entities) {
    // Use a representative record name as the entity keywords.
    std::string name;
    for (const Record& record : world.dataset.records()) {
      if (report.linkage.clusters.label_of_record[record.idx] ==
              entity.cluster &&
          !record.fields.empty()) {
        name = record.fields[0].value;
        break;
      }
    }
    std::printf("Q: tell me about \"%s\"\n", name.c_str());
    for (const char* question : questions) {
      serve::AskAnswer answer = snapshot->Ask(question, name);
      if (!answer.found()) {
        std::printf("   %-10s (no answer)\n", question);
        continue;
      }
      size_t agree = 0;
      for (const auto& support : answer.support) {
        if (support.agrees) ++agree;
      }
      std::printf("   %-10s = %-16s (confidence %.2f; %zu/%zu sources"
                  " agree)\n",
                  question, answer.value.c_str(), answer.confidence, agree,
                  answer.support.size());
    }
    std::printf("\n");
  }

  // Show dissent in detail for one contested answer.
  std::string name;
  for (const Record& record : world.dataset.records()) {
    if (!record.fields.empty()) {
      name = record.fields[0].value;
      break;
    }
  }
  serve::AskAnswer answer = snapshot->Ask("impedance", name);
  if (answer.found()) {
    std::printf("provenance for impedance of \"%s\" -> %s:\n", name.c_str(),
                answer.value.c_str());
    for (const auto& support : answer.support) {
      std::printf("   %-24s said %-14s %s\n", support.source.c_str(),
                  support.value.c_str(),
                  support.agrees ? "(agrees)" : "(dissents)");
    }
  }
  return 0;
}
