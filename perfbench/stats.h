// Statistics and result-line helpers of the benchmark: percentiles that
// refuse thin tails, response outcome counting, metric-name checks and
// the one-line JSON result the benchmark prints last.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Fewest samples that must lie strictly beyond a percentile's rank before
/// the percentile is reported.
inline constexpr size_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile `q` in (0, 1) of `samples`, or nullopt when
/// fewer than kMinSamplesBeyond samples rank above it (the tail is too
/// thin to say anything about).
std::optional<double> Percentile(std::vector<double> samples, double q);

/// Median of a small sample set (no tail rule: the median of an odd count
/// is the middle value, of an even count the mean of the middle two).
/// Requires a non-empty input.
double Median(std::vector<double> samples);

/// A uniform random sample of at most `capacity` values from a stream
/// (reservoir sampling), so that recording every request of a long window
/// takes fixed memory and the process's peak resident set does not grow
/// with the window or the request rate.
class Reservoir {
 public:
  Reservoir(size_t capacity, uint64_t seed);

  /// Offers one value of the stream.
  void Add(double value);
  /// Appends another reservoir's sample. Both should have seen streams of
  /// similar length, so that their samples weigh alike.
  void Merge(const Reservoir& other);

  const std::vector<double>& samples() const { return samples_; }
  /// Values offered so far.
  uint64_t seen() const { return seen_; }

 private:
  size_t capacity_;
  uint64_t state_;
  uint64_t seen_ = 0;
  std::vector<double> samples_;
};

/// Counts protocol operations and how many of them failed: a response
/// fails when it does not parse as a JSON object, when `ok` is not true,
/// or when it carries an `error` member (`overloaded` sheds included).
class OpCounter {
 public:
  /// Records one response line; returns true when it succeeded.
  bool Record(std::string_view response);
  /// Records an operation whose outcome the caller judged.
  void RecordOutcome(bool ok);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  /// failed / attempted (0 when nothing was attempted).
  double failed_ratio() const;
  /// Adds another counter's totals to this one.
  void Merge(const OpCounter& other);

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// True when `name` is a valid metric name: 1 to 64 characters from
/// [A-Za-z0-9_.-], starting with a letter or digit.
bool ValidMetricName(std::string_view name);

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// How many measurements the value summarizes (printed in the summary
  /// table, not in the result line).
  size_t samples = 0;
};

/// The benchmark's result: its gates and metrics, printed as a summary
/// table plus the final JSON line.
class Report {
 public:
  /// Adds a metric. Names must be unique and valid; values finite.
  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples);
  /// Adds a percentile metric; a refused percentile fails the run with a
  /// note naming the metric.
  void AddPercentile(const std::string& name,
                     const std::vector<double>& samples, double q,
                     const std::string& unit);
  /// Records a correctness gate's outcome with a one-line description.
  void Gate(bool passed, const std::string& what);
  /// Records an informational line printed above the table.
  void Note(const std::string& line);

  bool correct() const { return correct_; }
  OpCounter& ops() { return ops_; }
  const std::vector<Metric>& metrics() const { return metrics_; }

  /// Prints the notes, gate lines and metric table, then the JSON result
  /// line (last line of stdout) holding only the metrics named in
  /// `json_metrics`, in that order. Returns the process exit code: 0 when
  /// every gate passed and every named metric exists, 1 otherwise. The
  /// JSON line is printed only when every named metric exists.
  int Print(const std::vector<std::string>& json_metrics) const;

 private:
  bool correct_ = true;
  OpCounter ops_;
  std::vector<std::string> notes_;
  std::vector<std::string> gates_;
  std::vector<Metric> metrics_;
};

/// Formats a double with all the digits needed to read it back exactly.
std::string FormatExact(double value);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
