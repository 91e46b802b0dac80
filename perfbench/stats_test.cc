// perfbench_test — checks the benchmark's statistics helpers. Exits
// non-zero on the first failed check.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL %s\n", what);
    ++failures;
  }
}

std::vector<double> Range(int n) {
  std::vector<double> values;
  for (int i = n; i >= 1; --i) values.push_back(i);  // unsorted on purpose
  return values;
}

void TestPercentileRefusesThinTails() {
  using perfbench::Percentile;
  // p99 needs 10 samples above its rank: 1000 samples have exactly 10.
  Check(Percentile(Range(1000), 0.99) == 990.0, "p99 of 1..1000 is 990");
  Check(!Percentile(Range(999), 0.99).has_value(),
        "p99 of 999 samples (9 beyond) is refused");
  // p90 of 100 samples leaves 10 beyond; of 99, only 9.
  Check(Percentile(Range(100), 0.9) == 90.0, "p90 of 1..100 is 90");
  Check(!Percentile(Range(99), 0.9).has_value(),
        "p90 of 99 samples is refused");
  Check(Percentile(Range(20), 0.5) == 10.0, "p50 of 1..20 is 10");
  Check(!Percentile(Range(19), 0.5).has_value(),
        "p50 of 19 samples (9 beyond rank 10) is refused");
  Check(!Percentile({}, 0.5).has_value(), "percentile of nothing is refused");
  Check(!Percentile(Range(100), 1.0).has_value(), "p100 is refused");
}

void TestMedian() {
  using perfbench::Median;
  Check(Median({3, 1, 2}) == 2.0, "median of odd count");
  Check(Median({4, 1, 3, 2}) == 2.5, "median of even count");
}

void TestReservoirKeepsFixedUniformSample() {
  perfbench::Reservoir small(100, 7);
  for (int i = 0; i < 50; ++i) small.Add(i);
  Check(small.samples().size() == 50 && small.seen() == 50,
        "a reservoir below capacity keeps every value");
  perfbench::Reservoir big(1000, 7);
  for (int i = 0; i < 100000; ++i) big.Add(i);
  Check(big.samples().size() == 1000 && big.seen() == 100000,
        "a full reservoir keeps exactly its capacity");
  const double median = perfbench::Median(big.samples());
  Check(median > 45000 && median < 55000,
        "a reservoir's median tracks the stream's median");
  perfbench::Reservoir merged(10, 1);
  merged.Add(1);
  merged.Merge(small);
  Check(merged.samples().size() == 51 && merged.seen() == 51,
        "merging appends samples and counts");
}

void TestFailedRatioCountsRefusals() {
  perfbench::OpCounter ops;
  Check(ops.Record(R"({"ok":true,"id":1,"v":1,"hits":[]})"), "ok response");
  Check(!ops.Record(R"({"ok":false,"id":2,"error":"bad request"})"),
        "ok:false counts as failed");
  Check(!ops.Record(R"({"ok":false,"error":"overloaded","retry_after_ms":5,)"
                    R"("pending_batches":1,"pending_records":25})"),
        "overloaded counts as failed");
  Check(!ops.Record(R"({"ok":true,"error":"overloaded"})"),
        "a response carrying an error counts as failed");
  Check(!ops.Record("not json"), "an unparseable response counts as failed");
  Check(!ops.Record(R"({"id":3})"), "a response without ok counts as failed");
  ops.RecordOutcome(true);
  ops.RecordOutcome(false);
  Check(ops.attempted() == 8 && ops.failed() == 6, "attempts and failures");
  Check(ops.failed_ratio() == 0.75, "failed_ratio is failed over attempted");
  Check(perfbench::OpCounter().failed_ratio() == 0.0,
        "failed_ratio of nothing attempted is 0");
}

void TestMetricNames() {
  using perfbench::ValidMetricName;
  for (const char* name :
       {"setup_s", "latency_p50_ms", "linkage.prepare_ms", "rss-peak",
        "9lives", "A.b_c-d"}) {
    Check(ValidMetricName(name), name);
  }
  for (const char* name : {"", "_lead", ".lead", "has space", "slash/name",
                           "quote\"", "uni\xc3\xa9"}) {
    Check(!ValidMetricName(name), name);
  }
  Check(ValidMetricName(std::string(64, 'a')), "64 characters");
  Check(!ValidMetricName(std::string(65, 'a')), "65 characters");
}

void TestReportRejectsBadMetrics() {
  perfbench::Report report;
  report.Add("good", 1.0, "ms", 1);
  Check(report.correct(), "a valid metric keeps the report correct");
  report.Add("good", 2.0, "ms", 1);
  Check(!report.correct(), "a repeated metric name fails the report");
  perfbench::Report thin;
  thin.AddPercentile("latency_p99_ms", Range(50), 0.99, "ms");
  Check(!thin.correct() && thin.metrics().empty(),
        "a refused percentile fails the report instead of reporting");
}

}  // namespace

int main() {
  TestPercentileRefusesThinTails();
  TestMedian();
  TestReservoirKeepsFixedUniformSample();
  TestFailedRatioCountsRefusals();
  TestMetricNames();
  TestReportRejectsBadMetrics();
  if (failures > 0) {
    std::fprintf(stderr, "perfbench_test: %d checks failed\n", failures);
    return 1;
  }
  std::printf("perfbench_test: all checks passed\n");
  return 0;
}
