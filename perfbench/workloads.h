// The three measured workloads of perfbench_run and the helpers they
// share. Each workload fills a Report with its gates and metrics.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

/// What one perfbench_run invocation measures.
struct Options {
  std::string workload;
  /// Directory holding the generator's files for this workload.
  std::string corpus_dir;
  /// Scratch directory for files the program writes (the WAL).
  std::string work_dir;
  /// Length of the measuring window. A traced run splits it into an
  /// untraced half and a traced half.
  double seconds = 10.0;
  bool trace = false;
};

/// Batch integration: Integrator::Run back-to-back on a `.bds` corpus.
void RunIntegrate(const Options& options, Report* report);
/// Read-only serving: closed-loop find/ask clients through HandleLine.
void RunServeRead(const Options& options, Report* report);
/// Writes beside reads: one update writer and one reader through
/// HandleLine, WAL on with fsync.
void RunServeMixed(const Options& options, Report* report);

/// Seconds on the steady clock since an arbitrary fixed origin.
inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// True when a served answer value equals the generator's true value
/// (exact, or numerically equal up to a known unit conversion — the same
/// rule fusion evaluation applies).
bool AnswerMatches(const std::string& value, const std::string& expected);

/// Reads `name` from the workload's corpus directory, failing the gate on
/// error.
std::vector<std::string> ReadCorpusLines(const Options& options,
                                         const std::string& name,
                                         Report* report);

/// The value of the metrics registry's counter `name` (0 when it was
/// never registered).
uint64_t RegistryCounter(const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
