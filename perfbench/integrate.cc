// integrate — Integrator::Run back-to-back on a corpus loaded from `.bds`.
// The traced half re-runs the pipeline as its public stage calls, in
// Integrator::RunStages order, timing each call from here and reading the
// registry's linkage spans and counters.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bdi/common/metrics.h"
#include "bdi/common/trace.h"
#include "bdi/core/integrator.h"
#include "bdi/fusion/evaluation.h"
#include "bdi/serve/protocol.h"
#include "bdi/serve/snapshot.h"
#include "bdi/storage/dataset_reader.h"
#include "corpus_files.h"
#include "workloads.h"

namespace perfbench {

namespace {

using bdi::Dataset;
using bdi::core::IntegrationReport;
using bdi::core::IntegratorConfig;

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 20;
/// Fewest timed runs in an untraced window: latency_p90_ms needs 10 runs
/// beyond its rank.
constexpr size_t kMinRuns = 100;
/// Fewest runs in each half of a traced run.
constexpr size_t kMinTracedRuns = 5;

/// Wall milliseconds of each stage call of one composed pipeline run.
struct StageTimes {
  double stats = 0, align = 0, prepare = 0, run = 0, feedback = 0,
         claims = 0, resolve = 0, total = 0;
};

double Ms(double since) { return (Now() - since) * 1000.0; }

/// The pipeline as the public calls Integrator::RunStages makes, each
/// timed. Supports the configuration the workload uses (single-threshold
/// schema clustering, AccuCopy fusion).
IntegrationReport ComposedRun(const Dataset& dataset,
                              const IntegratorConfig& config,
                              StageTimes* times) {
  namespace schema = bdi::schema;
  IntegrationReport report;
  const double start = Now();
  double t = Now();
  report.stats = schema::AttributeStatistics::Compute(dataset);
  times->stats = Ms(t);

  t = Now();
  std::vector<schema::AttrEdge> edges =
      schema::BuildCandidateEdges(report.stats, config.attr_match);
  report.schema =
      schema::BuildMediatedSchema(report.stats, edges, config.mediated_schema);
  report.normalizer = schema::ValueNormalizer::Fit(report.stats, report.schema);
  times->align = Ms(t);

  t = Now();
  bdi::linkage::Linker linker(&dataset, config.linker, &report.schema,
                              &report.normalizer);
  times->prepare = Ms(t);
  t = Now();
  report.linkage = linker.Run();
  times->run = Ms(t);

  t = Now();
  schema::LinkageRefinementReport refinement = schema::RefineSchemaWithLinkage(
      dataset, report.stats, report.schema, report.normalizer,
      report.linkage.clusters.label_of_record, config.refinement);
  report.feedback_merges = refinement.merges;
  if (refinement.merges > 0) {
    report.schema = std::move(refinement.schema);
    report.normalizer =
        schema::ValueNormalizer::Fit(report.stats, report.schema);
  }
  times->feedback = Ms(t);

  t = Now();
  report.claims = bdi::fusion::ClaimDb::FromPipeline(
      dataset, report.linkage.clusters, report.schema, report.normalizer,
      &linker.roles());
  if (config.numeric_snap_tolerance > 0.0) {
    report.claims.CanonicalizeNumericValues(config.numeric_snap_tolerance);
  }
  times->claims = Ms(t);
  t = Now();
  report.fusion = bdi::fusion::AccuCopyFusion(config.accu_copy)
                      .Resolve(report.claims);
  times->resolve = Ms(t);
  times->total = Ms(start);
  return report;
}

bool SameOutput(const IntegrationReport& a, const IntegrationReport& b) {
  return a.fusion.chosen == b.fusion.chosen &&
         a.linkage.clusters.label_of_record ==
             b.linkage.clusters.label_of_record;
}

/// Total wall milliseconds of the registry span whose path ends in
/// `suffix` (the linkage spans nest under whichever span is open).
double SpanMs(const std::vector<bdi::metrics::SpanSample>& spans,
              const std::string& suffix) {
  for (const bdi::metrics::SpanSample& span : spans) {
    if (span.name.size() >= suffix.size() &&
        span.name.compare(span.name.size() - suffix.size(), suffix.size(),
                          suffix) == 0) {
      return span.wall_seconds * 1000.0;
    }
  }
  return 0.0;
}

/// Share of the probe asks whose answer, from a snapshot of `report`,
/// equals the truth.
double AnswerAccuracy(const IntegrationReport& report, const Dataset& dataset,
                      const std::vector<std::string>& probes,
                      const std::vector<std::string>& expected,
                      Report* out) {
  std::shared_ptr<const bdi::serve::Snapshot> snapshot =
      bdi::serve::Snapshot::Build(report, dataset, /*num_shards=*/8,
                                  /*version=*/1, /*num_threads=*/0);
  size_t correct = 0;
  bool parsed_all = probes.size() == expected.size();
  for (size_t i = 0; i < probes.size() && parsed_all; ++i) {
    bdi::Result<bdi::serve::Request> request =
        bdi::serve::ParseRequest(probes[i]);
    if (!request.ok()) {
      parsed_all = false;
      break;
    }
    bdi::serve::AskAnswer answer =
        snapshot->Ask(request->attribute, request->entity);
    if (AnswerMatches(answer.value, expected[i])) ++correct;
  }
  out->Gate(parsed_all, "every answer probe parses");
  return probes.empty() ? 0.0
                        : static_cast<double>(correct) /
                              static_cast<double>(probes.size());
}

}  // namespace

void RunIntegrate(const Options& options, Report* report) {
  const std::string corpus = options.corpus_dir + "/" + kCorpusFile;
  const IntegratorConfig config;
  const bdi::core::Integrator integrator(config);

  // Set-up: what a one-shot `bdi integrate` pays — load plus the first,
  // cold pipeline run — repeated, reporting the median.
  std::vector<double> setups;
  std::vector<double> loads;
  std::unique_ptr<Dataset> dataset;
  IntegrationReport reference;
  bool setups_repeat = true;
  for (int i = 0; i < kSetups; ++i) {
    dataset.reset();
    const double start = Now();
    bdi::Result<Dataset> loaded = bdi::storage::ReadDatasetAuto(corpus);
    loads.push_back(Ms(start));
    if (!loaded.ok()) {
      report->Gate(false, "load " + corpus + ": " + loaded.status().message());
      return;
    }
    dataset = std::make_unique<Dataset>(std::move(loaded).value());
    IntegrationReport first = integrator.Run(*dataset);
    setups.push_back(Now() - start);
    if (i > 0) {
      setups_repeat = setups_repeat && SameOutput(first, reference);
    }
    reference = std::move(first);
  }
  report->Gate(setups_repeat, "every set-up (" + std::to_string(kSetups) +
                                  ") repeats the first set-up's output");
  const double records = static_cast<double>(dataset->num_records());
  report->Note("corpus: " + std::to_string(dataset->num_records()) +
               " records, " + std::to_string(dataset->num_sources()) +
               " sources, " + std::to_string(dataset->num_attrs()) +
               " attributes");
  report->Add("setup_s", Median(setups), "s", setups.size());

  // Untraced window: back-to-back runs; every run must repeat the first.
  const double window = options.trace ? options.seconds / 2 : options.seconds;
  const size_t min_runs = options.trace ? kMinTracedRuns : kMinRuns;
  std::vector<double> run_ms;
  bool repeated = true;
  const double window_start = Now();
  while (Now() - window_start < window || run_ms.size() < min_runs) {
    const double start = Now();
    IntegrationReport out = integrator.Run(*dataset);
    run_ms.push_back(Ms(start));
    const bool same = SameOutput(out, reference);
    repeated = repeated && same;
    report->ops().RecordOutcome(same);
  }
  report->Gate(repeated, "every timed run repeats the first run's output (" +
                             std::to_string(run_ms.size()) + " runs)");
  const double median_ms = Median(run_ms);
  report->Add("throughput_per_s", records / (median_ms / 1000.0), "1/s",
              run_ms.size());
  if (!options.trace) {
    report->AddPercentile("latency_p50_ms", run_ms, 0.5, "ms");
    report->AddPercentile("latency_p90_ms", run_ms, 0.9, "ms");
  }

  // The composed pipeline must give Run's output bitwise. Untraced runs
  // check it once; the traced half times every stage of each repetition.
  std::vector<StageTimes> stages;
  std::vector<double> blocking, matching, clustering, candidates,
      match_ratio, skip_ratio, iterations;
  bool composed_equal = true;
  if (options.trace) bdi::metrics::SetEnabled(true);
  const double traced_start = Now();
  do {
    bdi::metrics::Registry::Get().Reset();
    bdi::trace::ResetSpans();
    StageTimes times;
    IntegrationReport composed = ComposedRun(*dataset, config, &times);
    composed_equal = composed_equal && SameOutput(composed, reference);
    stages.push_back(times);
    std::vector<bdi::metrics::SpanSample> spans = bdi::trace::SnapshotSpans();
    blocking.push_back(SpanMs(spans, "linkage/blocking"));
    matching.push_back(SpanMs(spans, "linkage/matching"));
    clustering.push_back(SpanMs(spans, "linkage/clustering"));
    const bdi::linkage::LinkageResult& linkage = composed.linkage;
    candidates.push_back(static_cast<double>(linkage.num_candidates));
    match_ratio.push_back(
        linkage.num_candidates == 0
            ? 0.0
            : static_cast<double>(linkage.num_matches) /
                  static_cast<double>(linkage.num_candidates));
    const double evaluated = static_cast<double>(
        RegistryCounter("bdi.linkage.matching.prefilter.evaluated"));
    skip_ratio.push_back(
        evaluated == 0.0
            ? 0.0
            : static_cast<double>(RegistryCounter(
                  "bdi.linkage.matching.prefilter.skipped")) /
                  evaluated);
    iterations.push_back(composed.fusion.iterations);
  } while (options.trace && (Now() - traced_start < options.seconds / 2 ||
                             stages.size() < kMinTracedRuns));
  bdi::metrics::SetEnabled(false);
  report->Gate(composed_equal,
               "composed stage calls give Integrator::Run's chosen values "
               "and cluster labels bitwise (" +
                   std::to_string(stages.size()) + " runs)");

  // Quality of the output, scored against the generator's truth.
  bdi::Result<bdi::GroundTruth> truth =
      ReadTruth(options.corpus_dir + "/" + kTruthFile, *dataset);
  report->Gate(truth.ok() && truth->entity_of_record.size() ==
                                 dataset->num_records(),
               "truth matches the corpus");
  if (!truth.ok()) return;
  const double f1 = bdi::linkage::EvaluateClusters(
                        reference.linkage.clusters.label_of_record,
                        truth->entity_of_record)
                        .f1;
  bdi::fusion::PipelineMappings mappings = bdi::fusion::MapPipelineToTruth(
      reference.linkage.clusters, reference.schema, *truth);
  const double precision =
      bdi::fusion::EvaluateFusionMapped(reference.claims, reference.fusion,
                                        mappings, *truth)
          .precision;
  std::vector<std::string> probes = ReadCorpusLines(options, kProbesFile,
                                                    report);
  std::vector<std::string> expected =
      ReadCorpusLines(options, kProbeAnswersFile, report);
  report->Add("answer_accuracy",
              AnswerAccuracy(reference, *dataset, probes, expected, report),
              "ratio", probes.size());

  if (!options.trace) {
    report->Note("linkage_f1 " + FormatExact(f1) + ", fusion_precision " +
                 FormatExact(precision) + " (per-layer metrics linkage.f1 "
                 "and fusion.precision of the traced run)");
    return;
  }
  auto median_of = [&](double StageTimes::*field) {
    std::vector<double> values;
    for (const StageTimes& s : stages) values.push_back(s.*field);
    return Median(values);
  };
  const size_t n = stages.size();
  report->Add("storage.load_ms", Median(loads), "ms", loads.size());
  report->Add("schema.stats_ms", median_of(&StageTimes::stats), "ms", n);
  report->Add("schema.align_ms", median_of(&StageTimes::align), "ms", n);
  report->Add("schema.feedback_ms", median_of(&StageTimes::feedback), "ms", n);
  report->Add("linkage.prepare_ms", median_of(&StageTimes::prepare), "ms", n);
  report->Add("linkage.run_ms", median_of(&StageTimes::run), "ms", n);
  report->Add("linkage.blocking_ms", Median(blocking), "ms", n);
  report->Add("linkage.matching_ms", Median(matching), "ms", n);
  report->Add("linkage.clustering_ms", Median(clustering), "ms", n);
  report->Add("linkage.candidates", Median(candidates), "count", n);
  report->Add("linkage.match_ratio", Median(match_ratio), "ratio", n);
  report->Add("linkage.prefilter_skip_ratio", Median(skip_ratio), "ratio", n);
  report->Add("linkage.f1", f1, "ratio", 1);
  report->Add("fusion.claims_ms", median_of(&StageTimes::claims), "ms", n);
  report->Add("fusion.resolve_ms", median_of(&StageTimes::resolve), "ms", n);
  report->Add("fusion.iterations", Median(iterations), "count", n);
  report->Add("fusion.precision", precision, "ratio", 1);
  const double composed_ms = median_of(&StageTimes::total);
  report->Add("trace.overhead_ratio", median_ms / composed_ms, "ratio", n);
  std::vector<double> coverage;
  for (const StageTimes& s : stages) {
    coverage.push_back((s.stats + s.align + s.prepare + s.run + s.feedback +
                        s.claims + s.resolve) /
                       s.total);
  }
  report->Add("trace.coverage_ratio", Median(coverage), "ratio", n);
}

}  // namespace perfbench
