// bdi — command-line front end for the Big Data Integration library.
//
//   bdi generate  --out corpus.csv [--truth labels.csv] [--category camera]
//                 [--entities 300] [--sources 12] [--copiers 0] [--seed 42]
//   bdi stats     --in corpus.csv
//   bdi integrate --in corpus.csv [--fusion vote|accu|accusim|truthfinder|
//                 accucopy] [--top 5] [--labels labels.csv]
//                 [--budget N|P%]   (progressive comparison budget)
//                 [--save-dir saved/]   (persist the integrated view)
//   bdi link      --in corpus.csv [--labels labels.csv] [--budget N|P%]
//                 (--budget caps the full-kernel comparisons matching may
//                 spend: an absolute count like 25000 or a percentage like
//                 25% of what an unbudgeted run would pay; the bound-ranked
//                 scheduler spends it on the likeliest pairs first)
//   bdi ask       --in corpus.csv --attribute weight --entity "Zorix QX-12"
//                 [--load-dir saved/]   (reuse a saved integration)
//   bdi evolve    --out-prefix snap --months 6 [--entities 300]
//                 [--sources 12] [--seed 42]   (velocity snapshot series)
//   bdi diff      --old snap_0.csv --new snap_3.csv   (change feed)
//   bdi trust     --in corpus.csv   (source quality audit: accuracies,
//                 copying, systematic bias)
//   bdi validate  <corpus.csv|corpus.bds> [--labels labels.csv]   (scan
//                 ingestion files for structural problems; prints every
//                 issue with its row instead of stopping at the first;
//                 .bds files take the checksum fast path — CRC-32C over
//                 every row group, no text re-parsing)
//   bdi convert   <in> <out>   (csv -> columnar .bds, or .bds -> csv;
//                 direction follows the input format; [--group-records N])
//   bdi head      <corpus.csv|corpus.bds> [--records 10]   (print the
//                 leading records as long CSV; reads only the row groups /
//                 CSV chunks that cover them, never the whole file)
//   bdi inspect   <corpus.bds>   (footer-level tour of a .bds file: counts,
//                 dictionaries, per-row-group table with encodings)
//   bdi serve     --in corpus.csv [--shards 8] [--threads 0]
//                 [--budget N|P%] [--budget-ms M] [--port P]
//                 [--wal path] [--wal-rotate-mb 64]
//                 [--max-pending-batches 32] [--max-pending-records 200000]
//                 (resident entity store: bootstraps the pipeline once,
//                 then serves JSON-lines requests — ask/find/stats/update/
//                 shutdown, see docs/SERVING.md — over stdin/stdout, or
//                 over TCP with --port; --port 0 picks an ephemeral port
//                 and prints it. --budget/--budget-ms cap each live update
//                 batch's linkage comparisons / wall-clock milliseconds.
//                 --wal makes accepted updates durable: every batch is
//                 fsynced to the log before it is applied, the log
//                 compacts into a .bds checkpoint past --wal-rotate-mb,
//                 and a restart with the same --wal replays to the exact
//                 pre-crash state. --max-pending-batches/-records bound
//                 admitted-but-unapplied update work; excess batches are
//                 shed with the structured `overloaded` error and a
//                 retry_after_ms hint instead of queueing unboundedly;
//                 0 means unlimited)
//
// `link` and `integrate` also accept `--budget-ms M`: a wall-clock
// deadline (milliseconds) on the matching stage, composable with
// `--budget` — whichever limit is hit first stops comparing.
//
// `generate` writes a synthetic multi-source corpus (and optionally its
// record->entity ground truth); the other commands work on any corpus in
// the long CSV format (source,record,attribute,value) or its columnar
// binary twin `.bds` (docs/FILE_FORMAT.md) — every `--in` sniffs the
// format by magic bytes.
//
// Every command additionally accepts `--metrics-out <path>` (or
// `--metrics-out=<path>`): it enables the metrics registry for the run and
// writes the JSON snapshot — per-stage wall times, candidate-pair counts,
// fusion EM iterations, executor task counts — to <path> on success. See
// docs/OBSERVABILITY.md for the schema and the full metric list.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bdi/common/csv.h"
#include "bdi/common/flags.h"
#include "bdi/common/metrics.h"
#include "bdi/common/string_util.h"
#include "bdi/common/table.h"
#include "bdi/core/integrator.h"
#include "bdi/core/diff.h"
#include "bdi/fusion/accu_copy.h"
#include "bdi/fusion/bias.h"
#include "bdi/core/report_io.h"
#include "bdi/linkage/linkage.h"
#include "bdi/linkage/progressive.h"
#include "bdi/model/dataset_io.h"
#include "bdi/model/validate.h"
#include "bdi/serve/server.h"
#include "bdi/serve/snapshot.h"
#include "bdi/schema/attribute_stats.h"
#include "bdi/storage/bds_reader.h"
#include "bdi/storage/bds_writer.h"
#include "bdi/storage/dataset_reader.h"
#include "bdi/storage/format.h"
#include "bdi/synth/world.h"

namespace {

using namespace bdi;

int Usage() {
  std::fprintf(
      stderr,
      "usage: bdi <generate|stats|integrate|link|ask|serve|evolve|diff|"
      "trust|validate|convert|head|inspect> [--flag value]...\n"
      "see the header of tools/bdi_cli.cc for the flag list\n");
  return 2;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

// Pulls an integer flag; a malformed value prints the error and returns
// false so the command can exit with a usage failure.
bool GetIntFlag(const Flags& flags, const char* name, int fallback,
                int* out) {
  Result<int> value = flags.GetInt(name, fallback);
  if (!value.ok()) {
    std::fprintf(stderr, "error: %s\n", value.status().ToString().c_str());
    return false;
  }
  *out = value.value();
  return true;
}

// Pulls the --budget flag (comparison count or percentage, see
// linkage::ParseComparisonBudget); absent means unlimited. A malformed
// spec prints the error and returns false so the command can exit with a
// usage failure before any pipeline work starts.
bool GetBudgetFlag(const Flags& flags, double* out) {
  *out = 0.0;
  if (!flags.Has("budget")) return true;
  Result<double> budget =
      linkage::ParseComparisonBudget(flags.Get("budget", ""));
  if (!budget.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 budget.status().ToString().c_str());
    return false;
  }
  *out = budget.value();
  return true;
}

// Pulls the --budget-ms flag (wall-clock matching deadline in whole
// milliseconds; absent or 0 means none). Validated eagerly like every
// integer flag; negatives are usage failures.
bool GetBudgetMsFlag(const Flags& flags, double* out) {
  int budget_ms = 0;
  if (!GetIntFlag(flags, "budget-ms", 0, &budget_ms)) return false;
  if (budget_ms < 0) {
    std::fprintf(stderr, "error: --budget-ms must be non-negative\n");
    return false;
  }
  *out = static_cast<double>(budget_ms);
  return true;
}

int CmdGenerate(const Flags& flags) {
  if (!flags.Has("out")) {
    std::fprintf(stderr, "generate: --out is required\n");
    return 2;
  }
  int entities = 0;
  int sources = 0;
  int copiers = 0;
  int seed = 0;
  if (!GetIntFlag(flags, "entities", 300, &entities) ||
      !GetIntFlag(flags, "sources", 12, &sources) ||
      !GetIntFlag(flags, "copiers", 0, &copiers) ||
      !GetIntFlag(flags, "seed", 42, &seed)) {
    return 2;
  }
  synth::WorldConfig config;
  config.category = flags.Get("category", "camera");
  config.num_entities = entities;
  config.num_sources = sources;
  config.num_copiers = copiers;
  config.seed = static_cast<uint64_t>(seed);
  synth::SyntheticWorld world = synth::GenerateWorld(config);
  Status status = WriteDatasetCsv(world.dataset, flags.Get("out", ""));
  if (!status.ok()) return Fail(status);
  std::printf("wrote %zu records from %zu sources to %s\n",
              world.dataset.num_records(), world.dataset.num_sources(),
              flags.Get("out", "").c_str());
  if (flags.Has("truth")) {
    status = WriteLabelsCsv(world.truth.entity_of_record,
                            flags.Get("truth", ""));
    if (!status.ok()) return Fail(status);
    std::printf("wrote ground-truth labels to %s\n",
                flags.Get("truth", "").c_str());
  }
  return 0;
}

int CmdStats(const Flags& flags) {
  Result<Dataset> dataset = storage::ReadDatasetAuto(flags.Get("in", ""));
  if (!dataset.ok()) return Fail(dataset.status());
  schema::AttributeStatistics stats =
      schema::AttributeStatistics::Compute(dataset.value());
  TextTable sources({"source", "records"});
  for (const SourceInfo& source : dataset->sources()) {
    sources.AddRow({source.name, std::to_string(source.records.size())});
  }
  sources.Print("sources");
  TextTable names({"attribute name", "#sources"});
  std::multimap<size_t, std::string, std::greater<>> by_count;
  for (const auto& [name, count] : stats.name_source_counts()) {
    by_count.emplace(count, name);
  }
  int shown = 0;
  for (const auto& [count, name] : by_count) {
    if (shown++ >= 15) break;
    names.AddRow({name, std::to_string(count)});
  }
  names.Print("most widespread attribute names (top 15 of " +
              std::to_string(stats.name_source_counts().size()) + ")");
  return 0;
}

int CmdIntegrate(const Flags& flags) {
  int top = 0;  // checked before the pipeline runs, not at print time
  double budget = 0.0;
  double budget_ms = 0.0;
  if (!GetIntFlag(flags, "top", 5, &top)) return 2;
  if (!GetBudgetFlag(flags, &budget)) return 2;
  if (!GetBudgetMsFlag(flags, &budget_ms)) return 2;
  Result<Dataset> dataset = storage::ReadDatasetAuto(flags.Get("in", ""));
  if (!dataset.ok()) return Fail(dataset.status());

  core::IntegratorConfig config;
  config.linker.comparison_budget = budget;
  config.linker.budget_ms = budget_ms;
  std::string fusion = flags.Get("fusion", "accucopy");
  if (fusion == "vote") {
    config.fusion = core::FusionKind::kVote;
  } else if (fusion == "accu") {
    config.fusion = core::FusionKind::kAccu;
  } else if (fusion == "accusim") {
    config.fusion = core::FusionKind::kAccuSim;
  } else if (fusion == "truthfinder") {
    config.fusion = core::FusionKind::kTruthFinder;
  } else if (fusion == "accucopy") {
    config.fusion = core::FusionKind::kAccuCopy;
  } else {
    std::fprintf(stderr, "unknown --fusion '%s'\n", fusion.c_str());
    return 2;
  }

  core::Integrator integrator(config);
  core::IntegrationReport report = integrator.Run(dataset.value());
  std::printf("%s\n\n", report.Summary().c_str());

  if (flags.Has("save-dir")) {
    Status saved =
        core::SaveIntegration(report, dataset.value(), flags.Get("save-dir", ""));
    if (!saved.ok()) return Fail(saved);
    std::printf("saved integrated view to %s\n\n",
                flags.Get("save-dir", "").c_str());
  }

  if (flags.Has("labels")) {
    Result<std::vector<EntityId>> labels =
        ReadLabelsCsv(flags.Get("labels", ""));
    if (!labels.ok()) return Fail(labels.status());
    linkage::LinkageQuality quality = linkage::EvaluateClusters(
        report.linkage.clusters.label_of_record, labels.value());
    std::printf("linkage vs labels: P=%.3f R=%.3f F1=%.3f\n\n",
                quality.precision, quality.recall, quality.f1);
  }

  for (const auto& entity : core::MaterializeEntities(
           report, dataset.value(), static_cast<size_t>(top))) {
    std::printf("entity #%d (%zu records)\n", entity.cluster,
                entity.num_records);
    for (const auto& [attr, value] : entity.values) {
      std::printf("  %-20s %s\n", attr.c_str(), value.c_str());
    }
  }
  return 0;
}

int CmdLink(const Flags& flags) {
  double budget = 0.0;  // checked before the pipeline runs
  double budget_ms = 0.0;
  if (!GetBudgetFlag(flags, &budget)) return 2;
  if (!GetBudgetMsFlag(flags, &budget_ms)) return 2;
  Result<Dataset> dataset = storage::ReadDatasetAuto(flags.Get("in", ""));
  if (!dataset.ok()) return Fail(dataset.status());
  linkage::LinkerConfig config;
  config.comparison_budget = budget;
  config.budget_ms = budget_ms;
  linkage::Linker linker(&dataset.value(), config);
  linkage::LinkageResult result = linker.Run();
  std::printf("%zu records -> %zu entities (%zu candidates, %zu matches)\n",
              dataset->num_records(), result.clusters.num_clusters,
              result.num_candidates, result.num_matches);
  if (budget > 0.0 || budget_ms > 0.0) {
    std::string limits;
    if (budget > 0.0) limits = flags.Get("budget", "");
    if (budget_ms > 0.0) {
      if (!limits.empty()) limits += " + ";
      limits += flags.Get("budget-ms", "") + "ms";
    }
    std::printf(
        "budget %s: %zu comparisons spent, %zu candidates deferred\n",
        limits.c_str(), result.num_scheduled, result.num_deferred);
  }
  if (flags.Has("labels")) {
    Result<std::vector<EntityId>> labels =
        ReadLabelsCsv(flags.Get("labels", ""));
    if (!labels.ok()) return Fail(labels.status());
    linkage::LinkageQuality quality = linkage::EvaluateClusters(
        result.clusters.label_of_record, labels.value());
    std::printf("vs labels: P=%.3f R=%.3f F1=%.3f\n", quality.precision,
                quality.recall, quality.f1);
  }
  return 0;
}

int CmdTrust(const Flags& flags) {
  Result<Dataset> dataset = storage::ReadDatasetAuto(flags.Get("in", ""));
  if (!dataset.ok()) return Fail(dataset.status());
  core::Integrator integrator;
  core::IntegrationReport report = integrator.Run(dataset.value());

  // Copy-aware re-resolution for the dependence estimates.
  fusion::AccuCopyFusion accucopy;
  fusion::FusionResult result = accucopy.Resolve(report.claims);

  TextTable accuracy_table({"source", "estimated accuracy", "claims"});
  std::vector<size_t> claims_per_source(dataset->num_sources(), 0);
  for (const fusion::DataItem& item : report.claims.items()) {
    for (const fusion::Claim& claim : item.claims) {
      ++claims_per_source[claim.source];
    }
  }
  for (size_t s = 0; s < dataset->num_sources(); ++s) {
    accuracy_table.AddRow({dataset->source(s).name,
                           FormatDouble(result.source_accuracy[s], 3),
                           std::to_string(claims_per_source[s])});
  }
  accuracy_table.Print("estimated source accuracies");

  bool any_dependence = false;
  for (const fusion::SourceDependence& d : accucopy.last_dependencies()) {
    if (d.probability < 0.5) continue;
    if (!any_dependence) {
      std::printf("probable copying:\n");
      any_dependence = true;
    }
    std::printf("  %s <-> %s  P=%.2f (shared false values: %zu)\n",
                dataset->source(d.a).name.c_str(),
                dataset->source(d.b).name.c_str(), d.probability,
                d.shared_false);
  }
  if (!any_dependence) std::printf("no copying detected\n");

  std::vector<fusion::SourceBias> biases =
      fusion::DetectBias(report.claims, result);
  if (biases.empty()) {
    std::printf("no systematic bias detected\n");
  } else {
    std::printf("systematic biases:\n");
    int shown = 0;
    for (const fusion::SourceBias& bias : biases) {
      if (shown++ >= 10) break;
      std::string attr =
          bias.attr >= 0 &&
                  static_cast<size_t>(bias.attr) <
                      report.schema.cluster_names.size()
              ? report.schema.cluster_names[bias.attr]
              : "?";
      std::printf("  %s / %s: %+0.1f%% (over %zu items)\n",
                  dataset->source(bias.source).name.c_str(), attr.c_str(),
                  100.0 * bias.relative_bias, bias.items);
    }
  }
  return 0;
}

int CmdDiff(const Flags& flags) {
  int limit = 0;  // checked before the two pipeline runs, not at print time
  if (!GetIntFlag(flags, "limit", 40, &limit)) return 2;
  Result<Dataset> old_dataset = storage::ReadDatasetAuto(flags.Get("old", ""));
  if (!old_dataset.ok()) return Fail(old_dataset.status());
  Result<Dataset> new_dataset = storage::ReadDatasetAuto(flags.Get("new", ""));
  if (!new_dataset.ok()) return Fail(new_dataset.status());
  core::Integrator integrator;
  core::IntegrationReport old_report = integrator.Run(old_dataset.value());
  core::IntegrationReport new_report = integrator.Run(new_dataset.value());
  core::IntegrationDiff diff = core::DiffIntegrations(
      old_report, old_dataset.value(), new_report, new_dataset.value());
  std::printf("%zu entities matched; %zu changes\n\n",
              diff.entities_matched, diff.changes.size());
  int shown = 0;
  for (const core::IntegrationChange& change : diff.changes) {
    if (shown++ >= limit) break;
    using Kind = core::IntegrationChange::Kind;
    switch (change.kind) {
      case Kind::kEntityAppeared:
        std::printf("+ entity  %s\n", change.entity_name.c_str());
        break;
      case Kind::kEntityDisappeared:
        std::printf("- entity  %s\n", change.entity_name.c_str());
        break;
      case Kind::kValueChanged:
        std::printf("~ %s / %s: %s -> %s\n", change.entity_name.c_str(),
                    change.attribute.c_str(), change.old_value.c_str(),
                    change.new_value.c_str());
        break;
      case Kind::kValueAppeared:
        std::printf("+ %s / %s = %s\n", change.entity_name.c_str(),
                    change.attribute.c_str(), change.new_value.c_str());
        break;
      case Kind::kValueDisappeared:
        std::printf("- %s / %s (was %s)\n", change.entity_name.c_str(),
                    change.attribute.c_str(), change.old_value.c_str());
        break;
    }
  }
  return 0;
}

int CmdEvolve(const Flags& flags) {
  if (!flags.Has("out-prefix")) {
    std::fprintf(stderr, "evolve: --out-prefix is required\n");
    return 2;
  }
  int entities = 0;
  int sources = 0;
  int seed = 0;
  int months = 0;
  if (!GetIntFlag(flags, "entities", 300, &entities) ||
      !GetIntFlag(flags, "sources", 12, &sources) ||
      !GetIntFlag(flags, "seed", 42, &seed) ||
      !GetIntFlag(flags, "months", 6, &months)) {
    return 2;
  }
  synth::WorldConfig config;
  config.category = flags.Get("category", "camera");
  config.num_entities = entities;
  config.num_sources = sources;
  config.seed = static_cast<uint64_t>(seed);
  synth::TemporalConfig temporal;
  synth::WorldSimulator simulator(config);
  for (int month = 0; month <= months; ++month) {
    synth::SyntheticWorld snapshot = simulator.Snapshot();
    std::string base =
        flags.Get("out-prefix", "snap") + "_" + std::to_string(month);
    Status status = WriteDatasetCsv(snapshot.dataset, base + ".csv");
    if (!status.ok()) return Fail(status);
    status = WriteLabelsCsv(snapshot.truth.entity_of_record,
                            base + ".labels.csv");
    if (!status.ok()) return Fail(status);
    std::printf("month %d: %zu records, %zu sources -> %s.csv\n", month,
                snapshot.dataset.num_records(),
                snapshot.dataset.num_sources(), base.c_str());
    if (month < months) simulator.Step(temporal);
  }
  return 0;
}

int CmdAsk(const Flags& flags) {
  if (!flags.Has("attribute") || !flags.Has("entity")) {
    std::fprintf(stderr, "ask: --attribute and --entity are required\n");
    return 2;
  }
  Result<Dataset> dataset = storage::ReadDatasetAuto(flags.Get("in", ""));
  if (!dataset.ok()) return Fail(dataset.status());
  core::IntegrationReport report;
  if (flags.Has("load-dir")) {
    Result<core::IntegrationReport> loaded =
        core::LoadIntegration(dataset.value(), flags.Get("load-dir", ""));
    if (!loaded.ok()) return Fail(loaded.status());
    report = std::move(loaded).value();
  } else {
    report = core::Integrator().Run(dataset.value());
  }
  // Answered by the same snapshot code `bdi serve` runs, on 1 shard.
  std::shared_ptr<const serve::Snapshot> snapshot =
      serve::Snapshot::Build(report, dataset.value(), 1, 1, 1);
  serve::AskAnswer answer =
      snapshot->Ask(flags.Get("attribute", ""), flags.Get("entity", ""));
  if (!answer.found()) {
    std::printf("no answer\n");
    return 0;
  }
  std::printf("%s of \"%s\" = %s  (confidence %.2f)\n",
              answer.attribute.c_str(), answer.entity_name.c_str(),
              answer.value.c_str(), answer.confidence);
  for (const serve::ServedClaim& support : answer.support) {
    std::printf("  %-24s %-16s %s\n", support.source.c_str(),
                support.value.c_str(),
                support.agrees ? "agrees" : "dissents");
  }
  return 0;
}

// Prints one file's validation report: a summary line, then every issue
// with its row. Returns true when the file is clean.
bool PrintValidation(const std::string& path,
                     const ValidationReport& report, bool dataset) {
  if (dataset) {
    std::printf("%s: %zu rows, %zu records, %zu sources, %zu attributes\n",
                path.c_str(), report.rows, report.records, report.sources,
                report.attributes);
  } else {
    std::printf("%s: %zu rows, %zu records\n", path.c_str(), report.rows,
                report.records);
  }
  if (report.ok()) {
    std::printf("%s: OK\n", path.c_str());
    return true;
  }
  std::printf("%s: %zu issue%s%s\n", path.c_str(), report.issues.size(),
              report.issues.size() == 1 ? "" : "s",
              report.truncated ? " (more suppressed)" : "");
  for (const ValidationIssue& issue : report.issues) {
    if (issue.row == 0) {
      std::printf("  file: %s\n", issue.message.c_str());
    } else {
      std::printf("  row %zu: %s\n", issue.row, issue.message.c_str());
    }
  }
  return false;
}

int CmdValidate(const Flags& flags, const std::string& positional) {
  std::string path =
      positional.empty() ? flags.Get("in", "") : positional;
  if (path.empty()) {
    std::fprintf(stderr,
                 "validate: a dataset path (positional or --in) is "
                 "required\n");
    return 2;
  }
  // `.bds` files take the checksum fast path: CRC-32C over every row
  // group and dictionary, no text parsing at all. Anything else goes
  // through the row-by-row CSV validator.
  Result<storage::DatasetFormat> format = storage::SniffDatasetFormat(path);
  bool clean;
  if (format.ok() && format.value() == storage::DatasetFormat::kBds) {
    clean = PrintValidation(path, storage::ValidateBdsFile(path), true);
  } else {
    clean = PrintValidation(path, ValidateDatasetCsv(path), true);
  }
  if (flags.Has("labels")) {
    std::string labels = flags.Get("labels", "");
    clean = PrintValidation(labels, ValidateLabelsCsv(labels), false) &&
            clean;
  }
  return clean ? 0 : 1;
}

int CmdConvert(const Flags& flags,
               const std::vector<std::string>& positionals) {
  if (positionals.size() != 2) {
    std::fprintf(stderr, "convert: usage: bdi convert <in> <out>\n");
    return 2;
  }
  const std::string& in = positionals[0];
  const std::string& out = positionals[1];
  int group_records = 0;
  if (!GetIntFlag(flags, "group-records", 4096, &group_records)) return 2;
  if (group_records <= 0) {
    std::fprintf(stderr, "convert: --group-records must be positive\n");
    return 2;
  }
  Result<storage::DatasetFormat> format = storage::SniffDatasetFormat(in);
  if (!format.ok()) return Fail(format.status());
  if (format.value() == storage::DatasetFormat::kCsv) {
    storage::BdsWriterOptions options;
    options.records_per_group = static_cast<uint32_t>(group_records);
    Result<storage::ConvertStats> stats =
        storage::ConvertCsvToBds(in, out, options);
    if (!stats.ok()) return Fail(stats.status());
    std::printf("converted %s -> %s\n", in.c_str(), out.c_str());
    std::printf(
        "%llu records, %llu fields, %llu row group%s\n",
        static_cast<unsigned long long>(stats->records),
        static_cast<unsigned long long>(stats->fields),
        static_cast<unsigned long long>(stats->row_groups),
        stats->row_groups == 1 ? "" : "s");
    double ratio =
        stats->bds_bytes > 0
            ? static_cast<double>(stats->csv_bytes) /
                  static_cast<double>(stats->bds_bytes)
            : 0.0;
    std::printf("%llu CSV bytes -> %llu bds bytes (%.2fx)\n",
                static_cast<unsigned long long>(stats->csv_bytes),
                static_cast<unsigned long long>(stats->bds_bytes), ratio);
    return 0;
  }
  // .bds input: decode and re-export as canonical long CSV (the same bytes
  // `WriteDatasetCsv(ReadDatasetCsv(original))` would produce).
  Result<storage::BdsReader> reader = storage::BdsReader::Open(in);
  if (!reader.ok()) return Fail(reader.status());
  Result<Dataset> dataset = reader->ReadAll();
  if (!dataset.ok()) return Fail(dataset.status());
  Status written = WriteDatasetCsv(dataset.value(), out);
  if (!written.ok()) return Fail(written);
  std::printf("converted %s -> %s (%zu records, %zu sources)\n", in.c_str(),
              out.c_str(), dataset->num_records(), dataset->num_sources());
  return 0;
}

int CmdHead(const Flags& flags,
            const std::vector<std::string>& positionals) {
  std::string path =
      positionals.empty() ? flags.Get("in", "") : positionals[0];
  if (path.empty()) {
    std::fprintf(stderr,
                 "head: a dataset path (positional or --in) is required\n");
    return 2;
  }
  int records = 0;
  if (!GetIntFlag(flags, "records", 10, &records)) return 2;
  if (records < 0) {
    std::fprintf(stderr, "head: --records must be non-negative\n");
    return 2;
  }
  Result<storage::DatasetReader> reader = storage::DatasetReader::Open(path);
  if (!reader.ok()) return Fail(reader.status());
  Result<Dataset> dataset =
      reader->ReadHead(static_cast<size_t>(records));
  if (!dataset.ok()) return Fail(dataset.status());
  // Long-CSV rows on stdout, exactly like the corresponding prefix of a
  // `bdi convert`ed CSV export, so `bdi head x.bds | bdi validate
  // /dev/stdin` style plumbing works.
  std::printf("%s\n",
              EncodeCsvRow({"source", "record", "attribute", "value"})
                  .c_str());
  for (const Record& record : dataset->records()) {
    for (const Field& field : record.fields) {
      std::printf("%s\n",
                  EncodeCsvRow({dataset->source(record.source).name,
                                std::to_string(record.idx),
                                dataset->attr_name(field.attr), field.value})
                      .c_str());
    }
  }
  return 0;
}

// Decodes the segment headers of one row group for `bdi inspect` without
// decoding any payloads: returns "source=rle attr=delta ..." or "?" when
// the group bytes are malformed (inspect never fails on a corrupt body —
// that is `bdi validate`'s job).
std::string GroupEncodingSummary(std::string_view group) {
  size_t offset = 0;
  Result<uint32_t> magic = storage::GetU32(group, &offset);
  if (!magic.ok() || magic.value() != storage::kRowGroupMagic) return "?";
  offset = storage::kRowGroupHeaderBytes - 4;  // skip record/field counts
  Result<uint32_t> num_segments = storage::GetU32(group, &offset);
  if (!num_segments.ok()) return "?";
  std::string summary;
  for (uint32_t s = 0; s < num_segments.value(); ++s) {
    if (offset + storage::kSegmentHeaderBytes > group.size()) return "?";
    uint8_t column = static_cast<uint8_t>(group[offset]);
    uint8_t encoding = static_cast<uint8_t>(group[offset + 1]);
    size_t header_rest = offset + 8;
    Result<uint64_t> payload = storage::GetU64(group, &header_rest);
    if (!payload.ok()) return "?";
    if (!summary.empty()) summary += " ";
    summary += std::string(storage::ColumnIdName(column)) + "=" +
               std::string(storage::ColumnEncodingName(encoding));
    offset = header_rest + payload.value();
    if (offset > group.size()) return "?";
  }
  return summary.empty() ? "(no segments)" : summary;
}

int CmdInspect(const Flags& flags,
               const std::vector<std::string>& positionals) {
  std::string path =
      positionals.empty() ? flags.Get("in", "") : positionals[0];
  if (path.empty()) {
    std::fprintf(stderr,
                 "inspect: a .bds path (positional or --in) is required\n");
    return 2;
  }
  Result<storage::BdsReader> reader = storage::BdsReader::Open(path);
  if (!reader.ok()) return Fail(reader.status());
  std::printf("%s: bds format version %u, %zu bytes\n", path.c_str(),
              reader->format_version(), reader->file_bytes());
  std::printf(
      "records: %llu  fields: %llu  row groups: %zu (%u records/group)\n",
      static_cast<unsigned long long>(reader->num_records()),
      static_cast<unsigned long long>(reader->num_fields()),
      reader->row_groups().size(), reader->records_per_group());
  std::printf(
      "dictionaries: %u sources (%llu B), %u attributes (%llu B), "
      "%u values (%llu B)\n",
      reader->source_dict().count,
      static_cast<unsigned long long>(reader->source_dict().bytes),
      reader->attr_dict().count,
      static_cast<unsigned long long>(reader->attr_dict().bytes),
      reader->value_dict().count,
      static_cast<unsigned long long>(reader->value_dict().bytes));
  TextTable groups(
      {"group", "offset", "bytes", "records", "fields", "crc32c",
       "encodings"});
  for (size_t g = 0; g < reader->row_groups().size(); ++g) {
    const storage::BdsRowGroupMeta& meta = reader->row_groups()[g];
    char crc[16];
    std::snprintf(crc, sizeof(crc), "%08x", meta.crc);
    groups.AddRow({std::to_string(g), std::to_string(meta.offset),
                   std::to_string(meta.bytes),
                   std::to_string(meta.num_records),
                   std::to_string(meta.num_fields), crc,
                   GroupEncodingSummary(reader->group_bytes(meta))});
  }
  groups.Print("row groups");
  if (reader->num_fields() > 0) {
    std::printf("bytes/field: %.2f\n",
                static_cast<double>(reader->file_bytes()) /
                    static_cast<double>(reader->num_fields()));
  }
  return 0;
}

int CmdServe(const Flags& flags) {
  // Every flag is validated before the bootstrap corpus is read, so a
  // typo fails in milliseconds instead of after a full integration run.
  int shards = 0;
  int threads = 0;
  int port = 0;
  int rotate_mb = 0;
  int max_pending_batches = 0;
  int max_pending_records = 0;
  double budget = 0.0;
  double budget_ms = 0.0;
  if (!GetIntFlag(flags, "shards", 8, &shards) ||
      !GetIntFlag(flags, "threads", 0, &threads) ||
      !GetIntFlag(flags, "port", 0, &port) ||
      !GetIntFlag(flags, "wal-rotate-mb", 64, &rotate_mb) ||
      !GetIntFlag(flags, "max-pending-batches", 32, &max_pending_batches) ||
      !GetIntFlag(flags, "max-pending-records", 200000,
                  &max_pending_records) ||
      !GetBudgetFlag(flags, &budget) ||
      !GetBudgetMsFlag(flags, &budget_ms)) {
    return 2;
  }
  if (shards < 1) {
    std::fprintf(stderr, "error: --shards must be at least 1\n");
    return 2;
  }
  if (threads < 0) {
    std::fprintf(stderr, "error: --threads must be non-negative\n");
    return 2;
  }
  if (flags.Has("port") && (port < 0 || port > 65535)) {
    std::fprintf(stderr, "error: --port must be in [0, 65535]\n");
    return 2;
  }
  if (rotate_mb < 0) {
    std::fprintf(stderr, "error: --wal-rotate-mb must be non-negative\n");
    return 2;
  }
  if (max_pending_batches < 0 || max_pending_records < 0) {
    std::fprintf(stderr,
                 "error: --max-pending-batches/--max-pending-records must "
                 "be non-negative\n");
    return 2;
  }
  Result<Dataset> dataset = storage::ReadDatasetAuto(flags.Get("in", ""));
  if (!dataset.ok()) return Fail(dataset.status());

  serve::StoreConfig store_config;
  store_config.num_shards = static_cast<size_t>(shards);
  store_config.comparison_budget = budget;
  store_config.budget_ms = budget_ms;
  store_config.num_threads = static_cast<size_t>(threads);
  store_config.wal.path = flags.Get("wal", "");
  store_config.wal.rotate_bytes = static_cast<uint64_t>(rotate_mb) << 20;
  store_config.max_pending_batches =
      static_cast<uint64_t>(max_pending_batches);
  store_config.max_pending_records =
      static_cast<uint64_t>(max_pending_records);
  Result<std::unique_ptr<serve::EntityStore>> store =
      serve::EntityStore::Create(std::move(dataset.value()), store_config);
  if (!store.ok()) return Fail(store.status());
  if (!store_config.wal.path.empty()) {
    std::fprintf(
        stderr,
        "bdi serve: WAL %s (base seq %llu, %llu batches replayed)\n",
        store_config.wal.path.c_str(),
        static_cast<unsigned long long>(store.value()->wal_base_sequence()),
        static_cast<unsigned long long>(store.value()->replayed_batches()));
  }

  // A client dropping its connection mid-response must never kill the
  // process: socket sends use MSG_NOSIGNAL, and SIGPIPE from the stdio
  // path is ignored process-wide.
  std::signal(SIGPIPE, SIG_IGN);

  std::shared_ptr<const serve::Snapshot> snapshot =
      store.value()->snapshot();
  // The ready banner goes to stderr: stdout is the response channel in
  // stdio mode and must carry nothing but JSON lines.
  std::fprintf(stderr,
               "bdi serve: %zu entities from %zu records across %zu "
               "shards (snapshot v%llu)\n",
               snapshot->num_entities(), snapshot->num_records(),
               snapshot->num_shards(),
               static_cast<unsigned long long>(snapshot->version()));

  serve::ServerConfig server_config;
  server_config.num_threads = static_cast<size_t>(threads);
  serve::Server server(store.value().get(), server_config);
  Status status = flags.Has("port")
                      ? server.ServeTcp(port, std::cout)
                      : server.ServeStream(std::cin, std::cout);
  if (!status.ok()) return Fail(status);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  // `validate`, `head`, and `inspect` take the file as a positional
  // argument, `convert` takes two; the remaining commands are flag-only.
  size_t max_positionals = 0;
  if (command == "validate" || command == "head" || command == "inspect") {
    max_positionals = 1;
  } else if (command == "convert") {
    max_positionals = 2;
  }
  std::vector<std::string> positionals;
  int first_flag = 2;
  while (positionals.size() < max_positionals && first_flag < argc &&
         std::strncmp(argv[first_flag], "--", 2) != 0) {
    positionals.emplace_back(argv[first_flag]);
    ++first_flag;
  }
  Flags flags(argc, argv, first_flag);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.error().c_str());
    return Usage();
  }
  std::string metrics_out = flags.Get("metrics-out", "");
  if (!metrics_out.empty()) bdi::metrics::SetEnabled(true);
  int rc;
  if (command == "generate") {
    rc = CmdGenerate(flags);
  } else if (command == "stats") {
    rc = CmdStats(flags);
  } else if (command == "integrate") {
    rc = CmdIntegrate(flags);
  } else if (command == "link") {
    rc = CmdLink(flags);
  } else if (command == "ask") {
    rc = CmdAsk(flags);
  } else if (command == "serve") {
    rc = CmdServe(flags);
  } else if (command == "evolve") {
    rc = CmdEvolve(flags);
  } else if (command == "diff") {
    rc = CmdDiff(flags);
  } else if (command == "trust") {
    rc = CmdTrust(flags);
  } else if (command == "validate") {
    rc = CmdValidate(flags, positionals.empty() ? "" : positionals[0]);
  } else if (command == "convert") {
    rc = CmdConvert(flags, positionals);
  } else if (command == "head") {
    rc = CmdHead(flags, positionals);
  } else if (command == "inspect") {
    rc = CmdInspect(flags, positionals);
  } else {
    return Usage();
  }
  if (rc == 0 && !metrics_out.empty()) {
    Status written =
        bdi::metrics::Registry::Get().WriteJsonFile(metrics_out);
    if (!written.ok()) return Fail(written);
    std::printf("wrote metrics snapshot to %s\n", metrics_out.c_str());
  }
  return rc;
}
