// perfbench_run — measures one workload on the files perfbench_gen wrote
// and prints the summary table and the JSON result line.
//
//   perfbench_run --workload integrate|serve-read|serve-mixed
//                 --corpus DIR --work DIR --seconds S --trace 0|1
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <thread>

#include "bdi/common/executor.h"
#include "bdi/common/metrics.h"
#include "bdi/common/string_util.h"
#include "bdi/fusion/evaluation.h"
#include "corpus_files.h"
#include "workloads.h"

namespace perfbench {

bool AnswerMatches(const std::string& value, const std::string& expected) {
  return !value.empty() &&
         bdi::fusion::ValuesMatchUnitTolerant(value, bdi::ToLower(expected),
                                              0.02);
}

std::vector<std::string> ReadCorpusLines(const Options& options,
                                         const std::string& name,
                                         Report* report) {
  bdi::Result<std::vector<std::string>> lines =
      ReadLines(options.corpus_dir + "/" + name);
  report->Gate(lines.ok() && !lines->empty(), "read " + name);
  return lines.ok() ? std::move(lines).value() : std::vector<std::string>{};
}

uint64_t RegistryCounter(const std::string& name) {
  for (const bdi::metrics::CounterSample& counter :
       bdi::metrics::Registry::Get().TakeSnapshot().counters) {
    if (counter.name == name) return counter.value;
  }
  return 0;
}

}  // namespace perfbench

namespace {

using perfbench::Report;

/// Peak resident set of this process so far, in MB.
double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// End-to-end metrics, printed on every workload when untraced.
const std::vector<std::string> kEndToEnd = {
    "setup_s",        "throughput_per_s", "latency_p50_ms",
    "latency_p90_ms", "answer_accuracy",  "rss_peak_mb"};

/// Per-layer metrics, printed on every workload when traced.
const std::vector<std::string> kPerLayer = {
    "storage.load_ms",          "schema.stats_ms",
    "schema.align_ms",          "schema.feedback_ms",
    "linkage.prepare_ms",       "linkage.run_ms",
    "linkage.blocking_ms",      "linkage.matching_ms",
    "linkage.clustering_ms",    "linkage.candidates",
    "linkage.match_ratio",      "linkage.prefilter_skip_ratio",
    "linkage.f1",               "fusion.claims_ms",
    "fusion.resolve_ms",        "fusion.iterations",
    "fusion.precision",         "core.refresh_ms",
    "schema.realign_ms",        "linkage.incremental_ms",
    "fusion.refresh_ms",        "linkage.batch_comparisons",
    "wal.append_ms",            "store.publish_ms",
    "store.bootstrap_ms",       "store.snapshot_load_us",
    "protocol.parse_us",        "server.encode_us",
    "snapshot.find_us_p50",     "snapshot.find_us_p99",
    "snapshot.ask_us_p50",      "snapshot.ask_us_p99",
    "snapshot.probes_per_query", "snapshot.find_miss_ratio",
    "serve.read_p50_ms",        "serve.read_p99_ms",
    "trace.overhead_ratio",     "trace.coverage_ratio"};

/// Per-layer metrics of layers that do no work on a workload. They are
/// printed as 0, which is also the prediction for them: no change.
const std::map<std::string, std::set<std::string>> kIdleLayers = {
    {"integrate",
     {"core.refresh_ms", "schema.realign_ms", "linkage.incremental_ms",
      "fusion.refresh_ms", "linkage.batch_comparisons", "wal.append_ms",
      "store.publish_ms", "store.bootstrap_ms", "store.snapshot_load_us",
      "protocol.parse_us", "server.encode_us", "snapshot.find_us_p50",
      "snapshot.find_us_p99", "snapshot.ask_us_p50", "snapshot.ask_us_p99",
      "snapshot.probes_per_query", "snapshot.find_miss_ratio",
      "serve.read_p50_ms", "serve.read_p99_ms"}},
    {"serve-read",
     {"schema.stats_ms", "schema.align_ms", "schema.feedback_ms",
      "linkage.prepare_ms", "linkage.run_ms", "linkage.blocking_ms",
      "linkage.matching_ms", "linkage.clustering_ms", "linkage.candidates",
      "linkage.match_ratio", "linkage.prefilter_skip_ratio", "linkage.f1",
      "fusion.claims_ms", "fusion.resolve_ms", "fusion.iterations",
      "fusion.precision", "core.refresh_ms", "schema.realign_ms",
      "linkage.incremental_ms", "fusion.refresh_ms",
      "linkage.batch_comparisons", "wal.append_ms", "store.publish_ms"}},
    {"serve-mixed",
     {"schema.stats_ms", "schema.align_ms", "schema.feedback_ms",
      "linkage.prepare_ms", "linkage.run_ms", "linkage.blocking_ms",
      "linkage.matching_ms", "linkage.clustering_ms", "linkage.candidates",
      "linkage.match_ratio", "linkage.prefilter_skip_ratio", "linkage.f1",
      "fusion.claims_ms", "fusion.resolve_ms", "fusion.iterations",
      "fusion.precision"}},
};

/// Executor workers per workload. With the calling thread counted, busy
/// threads stay at or below four: integrate runs 4 pipeline threads;
/// serve-read 2 clients (the pool only builds snapshots during set-up);
/// serve-mixed a writer whose loops use up to 2 threads plus 1 reader. With
/// 3 writer threads the four busy threads left no core for anything else,
/// and batches came out slower (median 118 ms against 102 ms over five
/// seeds run alternately).
size_t ExecutorThreads(const std::string& workload) {
  return workload == "integrate" ? 4 : 2;
}

/// The unit of a per-layer metric, read from its name.
std::string UnitOf(const std::string& name) {
  auto ends_with = [&](const std::string& suffix) {
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
  };
  if (ends_with("_ms")) return "ms";
  if (name.find("_us") != std::string::npos) return "us";
  if (ends_with("_ratio") || ends_with(".f1") || ends_with(".precision")) {
    return "ratio";
  }
  return "count";
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_run --workload integrate|serve-read|"
               "serve-mixed --corpus DIR --work DIR --seconds S "
               "--trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") options.workload = value;
    else if (flag == "--corpus") options.corpus_dir = value;
    else if (flag == "--work") options.work_dir = value;
    else if (flag == "--seconds") options.seconds = std::atof(value.c_str());
    else if (flag == "--trace") options.trace = value == "1";
    else return Usage();
  }
  auto idle = kIdleLayers.find(options.workload);
  if (idle == kIdleLayers.end() || options.corpus_dir.empty() ||
      options.work_dir.empty() || !(options.seconds > 0.0)) {
    return Usage();
  }
  bdi::Executor::Configure(ExecutorThreads(options.workload));

  Report report;
  report.Note("workload " + options.workload + ", measuring window " +
              perfbench::FormatExact(options.seconds) + " s" +
              (options.trace ? " (untraced half, then traced half)" : "") +
              ", executor " +
              std::to_string(bdi::Executor::Get().num_threads()) +
              " threads, hardware " +
              std::to_string(std::thread::hardware_concurrency()));
  if (options.workload == "integrate") {
    perfbench::RunIntegrate(options, &report);
  } else if (options.workload == "serve-read") {
    perfbench::RunServeRead(options, &report);
  } else {
    perfbench::RunServeMixed(options, &report);
  }
  report.Add("rss_peak_mb", PeakRssMb(), "MB", 1);
  report.Add("failed_ratio", report.ops().failed_ratio(), "ratio",
             report.ops().attempted());
  if (options.trace) {
    for (const std::string& name : idle->second) {
      report.Add(name, 0.0, UnitOf(name), 0);
    }
  }
  return report.Print(options.trace ? kPerLayer : kEndToEnd);
}
