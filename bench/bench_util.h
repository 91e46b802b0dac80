#ifndef BDI_BENCH_BENCH_UTIL_H_
#define BDI_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bdi/common/metrics.h"
#include "bdi/common/table.h"
#include "bdi/common/timer.h"
#include "bdi/synth/world.h"

namespace bdi::bench {

/// Prints the standard experiment banner so bench output is self-labeling.
inline void Banner(const std::string& experiment, const std::string& title,
                   const std::string& expectation) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", experiment.c_str(), title.c_str());
  std::printf("expected shape: %s\n", expectation.c_str());
  std::printf("==============================================================\n\n");
}

/// The common fusion-bench world: independent sources with spread
/// accuracies plus low-accuracy copiers.
inline synth::WorldConfig CopierWorldConfig(int num_entities = 400,
                                            int num_sources = 20,
                                            int num_copiers = 8) {
  synth::WorldConfig config;
  config.seed = 2013;
  config.category = "book";
  config.num_entities = num_entities;
  config.num_sources = num_sources;
  config.num_copiers = num_copiers;
  config.copy_rate = 0.9;
  config.copier_accuracy_min = 0.4;
  config.copier_accuracy_max = 0.6;
  config.source_accuracy_min = 0.7;
  config.source_accuracy_max = 0.95;
  // The classic propagation scenario: the big head source is mediocre and
  // every copier mirrors it, so its errors arrive many times over.
  config.source0_accuracy = 0.55;
  config.copier_original = 0;
  config.format_variation_prob = 0.0;  // isolate fusion from extraction
  return config;
}

/// The checks of the paper shape a bench prints, made on its own table.
/// Each Expect is one inequality of the shape; a broken one is printed
/// with its description, and Finish() gives main's exit code.
class ShapeChecks {
 public:
  void Expect(bool holds, const std::string& inequality) {
    ++checked_;
    if (holds) return;
    ++broken_;
    std::printf("shape broken: %s\n", inequality.c_str());
  }

  /// Prints the tally; returns 0 when every inequality held, else 1.
  int Finish() const {
    std::printf("shape checks: %zu of %zu hold\n", checked_ - broken_,
                checked_);
    return broken_ == 0 ? 0 : 1;
  }

 private:
  size_t checked_ = 0;
  size_t broken_ = 0;
};

/// Perf-trajectory reporter for the bench harness. Benches record named
/// measurements (wall seconds, thread count, items/sec); when the binary
/// was invoked with `--json`, the destructor writes them to
/// `BENCH_<name>.json` in the working directory so successive PRs can diff
/// performance. Metric names must not need JSON escaping (keep them to
/// [A-Za-z0-9_.:-]).
class JsonReporter {
 public:
  JsonReporter(std::string name, int argc, char** argv)
      : name_(std::move(name)) {
    for (int i = 1; i < argc; ++i) {
      if (std::string(argv[i]) == "--json") enabled_ = true;
    }
  }

  JsonReporter(const JsonReporter&) = delete;
  JsonReporter& operator=(const JsonReporter&) = delete;

  ~JsonReporter() { Write(); }

  bool enabled() const { return enabled_; }

  void Add(const std::string& metric, double wall_seconds, size_t threads,
           double items_per_sec) {
    entries_.push_back(Entry{metric, wall_seconds, threads, items_per_sec});
  }

  /// Extra top-level facts (e.g. "identical_chosen": true); `value` is
  /// spliced in verbatim, so pass valid JSON.
  void Note(const std::string& key, const std::string& value) {
    notes_.push_back({key, value});
  }

  void Write() {
    if (!enabled_ || written_) return;
    written_ = true;
    std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\"", name_.c_str());
    for (const auto& [key, value] : notes_) {
      std::fprintf(f, ",\n  \"%s\": %s", key.c_str(), value.c_str());
    }
    std::fprintf(f, ",\n  \"metrics\": [\n");
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"wall_seconds\": %.6f, "
                   "\"threads\": %zu, \"items_per_sec\": %.1f}%s\n",
                   e.metric.c_str(), e.wall_seconds, e.threads,
                   e.items_per_sec, i + 1 < entries_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
  }

 private:
  struct Entry {
    std::string metric;
    double wall_seconds = 0.0;
    size_t threads = 1;
    double items_per_sec = 0.0;
  };

  std::string name_;
  bool enabled_ = false;
  bool written_ = false;
  std::vector<Entry> entries_;
  std::vector<std::pair<std::string, std::string>> notes_;
};

/// Attaches the current metrics registry snapshot to the reporter under the
/// "pipeline_metrics" key, so BENCH_*.json carries the pipeline counters
/// and per-stage spans alongside the bench's own wall-time entries. No-op
/// (attaches an empty snapshot) when metrics were never enabled.
inline void AttachMetricsSnapshot(JsonReporter& reporter) {
  if (!reporter.enabled()) return;
  reporter.Note("pipeline_metrics", metrics::Registry::Get().ToJson());
}

/// Value of `--threads N` (default `fallback`); the parallel-scaling knob
/// shared by the bench binaries.
inline size_t ThreadsFlag(int argc, char** argv, size_t fallback = 8) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--threads") {
      long v = std::strtol(argv[i + 1], nullptr, 10);
      if (v > 0) return static_cast<size_t>(v);
    }
  }
  return fallback;
}

/// The shared bench main scaffold: parses the common flags (`--json`,
/// `--threads N`) once and owns the JsonReporter, so bench mains stop
/// hand-rolling the same two lines of plumbing. Construct it first thing
/// in main; the report (if `--json` was passed) is written when it goes
/// out of scope.
class BenchMain {
 public:
  BenchMain(std::string name, int argc, char** argv,
            size_t default_threads = 8)
      : threads_(ThreadsFlag(argc, argv, default_threads)),
        json_(std::move(name), argc, argv) {}

  BenchMain(const BenchMain&) = delete;
  BenchMain& operator=(const BenchMain&) = delete;

  /// The resolved `--threads` value.
  size_t threads() const { return threads_; }
  /// The bench's JSON reporter (no-op unless `--json` was passed).
  JsonReporter& json() { return json_; }
  /// True when `--json` was passed.
  bool json_enabled() const { return json_.enabled(); }

 private:
  size_t threads_;
  JsonReporter json_;
};

}  // namespace bdi::bench

#endif  // BDI_BENCH_BENCH_UTIL_H_
