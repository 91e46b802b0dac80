#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "bdi/serve/wire.h"

namespace perfbench {

std::optional<double> Percentile(std::vector<double> samples, double q) {
  const size_t n = samples.size();
  if (n == 0 || !(q > 0.0 && q < 1.0)) return std::nullopt;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  if (n - rank < kMinSamplesBeyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median of nothing");
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Reservoir::Reservoir(size_t capacity, uint64_t seed)
    : capacity_(capacity), state_(seed) {}

void Reservoir::Add(double value) {
  ++seen_;
  if (samples_.size() < capacity_) {
    samples_.push_back(value);
    return;
  }
  // splitmix64 step; keep the value with probability capacity / seen.
  state_ += 0x9e3779b97f4a7c15ull;
  uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  const uint64_t slot = z % seen_;
  if (slot < capacity_) samples_[slot] = value;
}

void Reservoir::Merge(const Reservoir& other) {
  samples_.insert(samples_.end(), other.samples_.begin(),
                  other.samples_.end());
  seen_ += other.seen_;
}

bool OpCounter::Record(std::string_view response) {
  bool ok = false;
  bdi::Result<bdi::serve::JsonValue> parsed =
      bdi::serve::ParseJson(response);
  if (parsed.ok() &&
      parsed->kind == bdi::serve::JsonValue::Kind::kObject) {
    const bdi::serve::JsonValue* ok_member = parsed->Find("ok");
    ok = ok_member != nullptr &&
         ok_member->kind == bdi::serve::JsonValue::Kind::kBool &&
         ok_member->boolean && parsed->Find("error") == nullptr;
  }
  RecordOutcome(ok);
  return ok;
}

void OpCounter::RecordOutcome(bool ok) {
  ++attempted_;
  if (!ok) ++failed_;
}

double OpCounter::failed_ratio() const {
  return attempted_ == 0 ? 0.0
                         : static_cast<double>(failed_) /
                               static_cast<double>(attempted_);
}

void OpCounter::Merge(const OpCounter& other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
}

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

std::string FormatExact(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit, size_t samples) {
  bool duplicate = std::any_of(metrics_.begin(), metrics_.end(),
                               [&](const Metric& m) { return m.name == name; });
  if (!ValidMetricName(name) || duplicate || !std::isfinite(value)) {
    Gate(false, "metric " + name + " is invalid, repeated or not finite");
    return;
  }
  metrics_.push_back(Metric{name, value, unit, samples});
}

void Report::AddPercentile(const std::string& name,
                           const std::vector<double>& samples, double q,
                           const std::string& unit) {
  std::optional<double> value = Percentile(samples, q);
  if (!value.has_value()) {
    Gate(false, name + ": fewer than " + std::to_string(kMinSamplesBeyond) +
                    " of " + std::to_string(samples.size()) +
                    " samples beyond the percentile");
    return;
  }
  Add(name, *value, unit, samples.size());
}

void Report::Gate(bool passed, const std::string& what) {
  if (!passed) correct_ = false;
  gates_.push_back(std::string(passed ? "PASS " : "FAIL ") + what);
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

int Report::Print(const std::vector<std::string>& json_metrics) const {
  for (const std::string& note : notes_) std::printf("# %s\n", note.c_str());
  for (const std::string& gate : gates_) std::printf("%s\n", gate.c_str());
  std::printf("%-30s %16s  %-6s %8s\n", "metric", "value", "unit",
              "samples");
  for (const Metric& m : metrics_) {
    std::printf("%-30s %16.6g  %-6s %8zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  std::printf("ops attempted %llu, failed %llu (failed_ratio %.6g)\n",
              static_cast<unsigned long long>(ops_.attempted()),
              static_cast<unsigned long long>(ops_.failed()),
              ops_.failed_ratio());

  std::string line = "{\"correct\": ";
  line += correct_ ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(ops_.attempted());
  line += ", \"failed\": " + std::to_string(ops_.failed());
  line += ", \"metrics\": {";
  bool complete = ops_.attempted() > 0;
  for (size_t i = 0; i < json_metrics.size(); ++i) {
    auto it = std::find_if(metrics_.begin(), metrics_.end(),
                           [&](const Metric& m) {
                             return m.name == json_metrics[i];
                           });
    if (it == metrics_.end()) {
      std::printf("FAIL metric %s was not measured\n",
                  json_metrics[i].c_str());
      complete = false;
      continue;
    }
    if (i > 0) line += ", ";
    line += "\"" + it->name + "\": {\"value\": " + FormatExact(it->value) +
            ", \"unit\": \"" + it->unit + "\"}";
  }
  line += "}}";
  if (!complete) {
    std::printf("benchmark failed: no result line\n");
    std::fflush(stdout);
    return 1;
  }
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct_ ? 0 : 1;
}

}  // namespace perfbench
