// serve-read and serve-mixed — in-process `bdi serve` load through
// Server::HandleLine, the handler both the stdio and TCP loops call. The
// traced half also runs each read as its public calls (ParseRequest,
// EntityStore::snapshot, Snapshot::Find/Ask) and reads the registry's
// refresh spans around every update batch.
#include <sys/stat.h>
#include <sys/statfs.h>
#include <sys/sysmacros.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bdi/common/metrics.h"
#include "bdi/common/trace.h"
#include "bdi/serve/protocol.h"
#include "bdi/serve/server.h"
#include "bdi/serve/store.h"
#include "bdi/serve/wire.h"
#include "bdi/storage/dataset_reader.h"
#include "corpus_files.h"
#include "workloads.h"

namespace perfbench {

namespace {

using bdi::Dataset;
using bdi::serve::EntityStore;
using bdi::serve::JsonValue;
using bdi::serve::Server;

/// Store set-ups in a serve-read run; setup_s is their median.
constexpr int kReadSetups = 20;
/// Fewest set-ups in a serve-mixed run: every drain starts from a fresh
/// set-up, and extra set-ups top the count up when fewer drains fit.
constexpr int kMinMixedSetups = 20;
/// Read clients of serve-read.
constexpr size_t kReadClients = 2;
/// Pool lines whose composed answer an untraced serve-read run compares
/// with HandleLine's.
constexpr size_t kComposedChecks = 1024;
/// Width of the slices serve-read throughput is the median over.
constexpr double kSliceSeconds = 0.5;
/// Request latencies each client keeps (a uniform sample of its window).
constexpr size_t kLatencySamples = 1 << 16;

double Ms(double since) { return (Now() - since) * 1000.0; }

/// Records where and how the WAL is written: its directory, file-system
/// type and device, and the flush policy.
void NoteWalDevice(const std::string& dir, Report* report) {
  struct stat st {};
  struct statfs fs {};
  std::string where = "unknown device";
  if (::stat(dir.c_str(), &st) == 0 && ::statfs(dir.c_str(), &fs) == 0) {
    char buffer[128];
    std::snprintf(buffer, sizeof(buffer),
                  "device %u:%u, file-system magic 0x%lx%s", major(st.st_dev),
                  minor(st.st_dev), static_cast<unsigned long>(fs.f_type),
                  fs.f_type == 0x01021994 ? " (tmpfs)" : "");
    where = buffer;
  }
  report->Note("wal: fsync after every batch; directory inside the "
               "benchmark's work dir, " + where);
}

bdi::serve::StoreConfig StoreConfigFor(const std::string& wal_path) {
  bdi::serve::StoreConfig config;
  config.num_shards = 8;
  config.wal.path = wal_path;
  config.wal.fsync = true;
  return config;
}

/// Loads a `.bds` corpus and bootstraps a store on it (WAL created at
/// `wal_path`), timing both.
std::unique_ptr<EntityStore> SetUp(const std::string& corpus,
                                   const std::string& wal_path,
                                   double* load_ms, double* create_ms,
                                   Report* report) {
  double start = Now();
  bdi::Result<Dataset> loaded = bdi::storage::ReadDatasetAuto(corpus);
  *load_ms = Ms(start);
  if (!loaded.ok()) {
    report->Gate(false, "load " + corpus + ": " + loaded.status().message());
    return nullptr;
  }
  start = Now();
  bdi::Result<std::unique_ptr<EntityStore>> store = EntityStore::Create(
      std::move(loaded).value(), StoreConfigFor(wal_path));
  *create_ms = Ms(start);
  if (!store.ok()) {
    report->Gate(false, "bootstrap: " + store.status().message());
    return nullptr;
  }
  return std::move(store).value();
}

/// Removes a WAL. The logs stay far below the rotation size, so no
/// checkpoint files exist beside them.
void RemoveWal(const std::string& wal_path) { ::unlink(wal_path.c_str()); }

const JsonValue* Member(const JsonValue& object, const char* key,
                        JsonValue::Kind kind) {
  const JsonValue* member = object.Find(key);
  return member != nullptr && member->kind == kind ? member : nullptr;
}

/// True when a HandleLine response carries the answer the composed calls
/// computed against the same snapshot.
bool SameAnswer(const bdi::serve::Request& request,
                const std::vector<bdi::serve::FindHit>& hits,
                const bdi::serve::AskAnswer& answer,
                const std::string& response) {
  bdi::Result<JsonValue> parsed = bdi::serve::ParseJson(response);
  if (!parsed.ok()) return false;
  if (request.op == bdi::serve::RequestOp::kFind) {
    const JsonValue* list = Member(*parsed, "hits", JsonValue::Kind::kArray);
    if (list == nullptr || list->array.size() != hits.size()) return false;
    for (size_t i = 0; i < hits.size(); ++i) {
      const JsonValue& hit = list->array[i];
      const JsonValue* cluster =
          Member(hit, "cluster", JsonValue::Kind::kNumber);
      const JsonValue* score = Member(hit, "score", JsonValue::Kind::kNumber);
      const JsonValue* text = Member(hit, "text", JsonValue::Kind::kString);
      if (cluster == nullptr || score == nullptr || text == nullptr ||
          cluster->number != hits[i].cluster ||
          score->number != hits[i].score || text->string != hits[i].text) {
        return false;
      }
    }
    return true;
  }
  const JsonValue* found = Member(*parsed, "found", JsonValue::Kind::kBool);
  if (found == nullptr || found->boolean != answer.found()) return false;
  if (!answer.found()) return true;
  const JsonValue* cluster =
      Member(*parsed, "cluster", JsonValue::Kind::kNumber);
  const JsonValue* value = Member(*parsed, "value", JsonValue::Kind::kString);
  const JsonValue* confidence =
      Member(*parsed, "confidence", JsonValue::Kind::kNumber);
  return cluster != nullptr && value != nullptr && confidence != nullptr &&
         cluster->number == answer.cluster && value->string == answer.value &&
         confidence->number == answer.confidence;
}

/// What one read client measured.
struct ReadStats {
  ReadStats(double origin, size_t slices, uint64_t seed)
      : latency_ms(kLatencySamples, seed),
        origin(origin),
        slice_counts(slices, 0.0) {}

  /// Request latencies, sampled.
  Reservoir latency_ms;
  /// Requests completed in each kSliceSeconds slice after `origin` (Now()
  /// clock); completions past the last slice are not counted.
  double origin;
  std::vector<double> slice_counts;
  OpCounter ops;
  // Traced reads only: the composed requests' stage times and the
  // HandleLine requests' whole times.
  std::vector<double> parse_us, load_us, find_us, ask_us, composed_us,
      handle_us;
  size_t finds = 0;
  size_t find_misses = 0;

  void Done(double start, double end) {
    latency_ms.Add((end - start) * 1000.0);
    const double slice = (end - origin) / kSliceSeconds;
    if (slice >= 0.0 && slice < static_cast<double>(slice_counts.size())) {
      slice_counts[static_cast<size_t>(slice)] += 1.0;
    }
  }

  /// Adds another client's measurements (taken over the same slices).
  void Merge(const ReadStats& other) {
    latency_ms.Merge(other.latency_ms);
    if (slice_counts.size() < other.slice_counts.size()) {
      slice_counts.resize(other.slice_counts.size(), 0.0);
    }
    for (size_t i = 0; i < other.slice_counts.size(); ++i) {
      slice_counts[i] += other.slice_counts[i];
    }
    for (auto member :
         {&ReadStats::parse_us, &ReadStats::load_us, &ReadStats::find_us,
          &ReadStats::ask_us, &ReadStats::composed_us,
          &ReadStats::handle_us}) {
      (this->*member)
          .insert((this->*member).end(), (other.*member).begin(),
                  (other.*member).end());
    }
    ops.Merge(other.ops);
    finds += other.finds;
    find_misses += other.find_misses;
  }
};

/// The composed read path: ParseRequest, EntityStore::snapshot, then
/// Snapshot::Find or Ask, as HandleLine calls them.
struct Composed {
  bdi::Result<bdi::serve::Request> request =
      bdi::Status::InvalidArgument("not parsed yet");
  std::vector<bdi::serve::FindHit> hits;
  bdi::serve::AskAnswer answer;
  double parse_us = 0, load_us = 0, query_us = 0;

  bool is_find() const {
    return request.ok() && request->op == bdi::serve::RequestOp::kFind;
  }
};

Composed RunComposed(const EntityStore& store, const std::string& line) {
  Composed out;
  const double t0 = Now();
  out.request = bdi::serve::ParseRequest(line);
  const double t1 = Now();
  std::shared_ptr<const bdi::serve::Snapshot> snapshot = store.snapshot();
  const double t2 = Now();
  if (out.is_find()) {
    out.hits = snapshot->Find(out.request->entity,
                              static_cast<size_t>(out.request->k));
  } else if (out.request.ok()) {
    out.answer = snapshot->Ask(out.request->attribute, out.request->entity);
  }
  const double t3 = Now();
  out.parse_us = (t1 - t0) * 1e6;
  out.load_us = (t2 - t1) * 1e6;
  out.query_us = (t3 - t2) * 1e6;
  return out;
}

/// A closed-loop read client: sends pool lines from `offset` on, one at a
/// time, until `stop` says so. Traced, even pool lines run as the composed
/// public calls (each stage timed) and odd ones through HandleLine (timed
/// whole): timing both on the same line would hand the second a warm
/// cache.
template <typename Stop>
void ReadClient(Server* server, const EntityStore& store,
                const std::vector<std::string>& pool, size_t offset,
                bool traced, Stop stop, ReadStats* out) {
  ReadStats& stats = *out;
  for (size_t i = offset; !stop(); ++i) {
    const size_t at = i % pool.size();
    const double start = Now();
    if (traced && at % 2 == 0) {
      Composed composed = RunComposed(store, pool[at]);
      stats.Done(start, Now());
      stats.ops.RecordOutcome(composed.request.ok());
      stats.parse_us.push_back(composed.parse_us);
      stats.load_us.push_back(composed.load_us);
      (composed.is_find() ? stats.find_us : stats.ask_us)
          .push_back(composed.query_us);
      stats.composed_us.push_back(composed.parse_us + composed.load_us +
                                  composed.query_us);
      if (composed.is_find()) {
        ++stats.finds;
        if (composed.hits.empty()) ++stats.find_misses;
      }
      continue;
    }
    std::string response = server->HandleLine(pool[at]);
    const double end = Now();
    stats.Done(start, end);
    stats.ops.Record(response);
    if (traced) stats.handle_us.push_back((end - start) * 1e6);
  }
}

/// Runs `lines` through both the composed calls and HandleLine on a store
/// no writer touches, and counts the lines whose answers differ.
size_t ComposedMismatches(Server* server, const EntityStore& store,
                          const std::vector<std::string>& lines) {
  size_t mismatches = 0;
  for (const std::string& line : lines) {
    Composed composed = RunComposed(store, line);
    std::string response = server->HandleLine(line);
    if (!composed.request.ok() ||
        !SameAnswer(*composed.request, composed.hits, composed.answer,
                    response)) {
      ++mismatches;
    }
  }
  return mismatches;
}

/// Adds answer_accuracy: the share of the probe asks HandleLine answers
/// with the true value.
void AddProbeAccuracy(Server* server, const Options& options,
                      Report* report) {
  std::vector<std::string> probes =
      ReadCorpusLines(options, kProbesFile, report);
  std::vector<std::string> expected =
      ReadCorpusLines(options, kProbeAnswersFile, report);
  if (probes.empty() || probes.size() != expected.size()) return;
  size_t correct = 0;
  bool all_ok = true;
  for (size_t i = 0; i < probes.size(); ++i) {
    bdi::Result<JsonValue> response =
        bdi::serve::ParseJson(server->HandleLine(probes[i]));
    const JsonValue* ok =
        response.ok() ? Member(*response, "ok", JsonValue::Kind::kBool)
                      : nullptr;
    if (ok == nullptr || !ok->boolean) {
      all_ok = false;
      continue;
    }
    const JsonValue* value =
        Member(*response, "value", JsonValue::Kind::kString);
    if (value != nullptr && AnswerMatches(value->string, expected[i])) {
      ++correct;
    }
  }
  report->Gate(all_ok, "every answer probe is answered ok");
  report->Add("answer_accuracy",
              static_cast<double>(correct) / static_cast<double>(probes.size()),
              "ratio", probes.size());
}

/// Median composed-call time over median HandleLine time: the share of a
/// request the composed calls account for.
double ReadCoverage(const ReadStats& reads) {
  return Median(reads.composed_us) / Median(reads.handle_us);
}

/// Adds the traced read-path metrics. HandleLine's encoding is what its
/// median time has beyond the composed calls' median.
void AddTracedReadMetrics(const ReadStats& reads, uint64_t shard_probes,
                          Report* report) {
  const size_t n = reads.parse_us.size();
  report->Add("store.snapshot_load_us", Median(reads.load_us), "us", n);
  report->Add("protocol.parse_us", Median(reads.parse_us), "us", n);
  const double composed = Median(reads.composed_us);
  const double handle = Median(reads.handle_us);
  report->Add("server.encode_us", handle - composed, "us",
              reads.handle_us.size());
  report->AddPercentile("snapshot.find_us_p50", reads.find_us, 0.5, "us");
  report->AddPercentile("snapshot.find_us_p99", reads.find_us, 0.99, "us");
  report->AddPercentile("snapshot.ask_us_p50", reads.ask_us, 0.5, "us");
  report->AddPercentile("snapshot.ask_us_p99", reads.ask_us, 0.99, "us");
  report->Add("snapshot.probes_per_query",
              static_cast<double>(shard_probes) /
                  static_cast<double>(reads.ops.attempted()),
              "count", reads.ops.attempted());
  report->Add("snapshot.find_miss_ratio",
              reads.finds == 0 ? 0.0
                               : static_cast<double>(reads.find_misses) /
                                     static_cast<double>(reads.finds),
              "ratio", reads.finds);
}

/// Median over the window's slices of requests completed per second.
double SlicedThroughput(const ReadStats& reads) {
  return Median(reads.slice_counts) / kSliceSeconds;
}

/// Runs kReadClients read clients for `seconds` against a quiet store.
ReadStats ReadWindow(Server* server, const EntityStore& store,
                     const std::vector<std::string>& pool, double seconds,
                     bool traced) {
  const double start = Now();
  const double deadline = start + seconds;
  const size_t slices =
      std::max<size_t>(1, static_cast<size_t>(seconds / kSliceSeconds));
  std::vector<ReadStats> per_client;
  for (size_t c = 0; c < kReadClients; ++c) {
    per_client.emplace_back(start, slices, c + 1);
  }
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kReadClients; ++c) {
    threads.emplace_back([&, c] {
      ReadClient(server, store, pool, c * pool.size() / kReadClients, traced,
                 [deadline] { return Now() >= deadline; }, &per_client[c]);
    });
  }
  for (std::thread& thread : threads) thread.join();
  ReadStats merged(start, slices, 0);
  for (const ReadStats& stats : per_client) merged.Merge(stats);
  return merged;
}

}  // namespace

void RunServeRead(const Options& options, Report* report) {
  const std::string corpus = options.corpus_dir + "/" + kCorpusFile;
  std::vector<std::string> pool =
      ReadCorpusLines(options, kRequestsFile, report);
  if (pool.empty()) return;
  NoteWalDevice(options.work_dir, report);

  std::vector<double> setups, loads, creates;
  std::unique_ptr<EntityStore> store;
  std::string wal_path;
  for (int i = 0; i < kReadSetups; ++i) {
    store.reset();
    if (!wal_path.empty()) RemoveWal(wal_path);
    wal_path = options.work_dir + "/read-" + std::to_string(i) + ".wal";
    double load_ms = 0, create_ms = 0;
    store = SetUp(corpus, wal_path, &load_ms, &create_ms, report);
    if (store == nullptr) return;
    loads.push_back(load_ms);
    creates.push_back(create_ms);
    setups.push_back((load_ms + create_ms) / 1000.0);
  }
  report->Note("store: " + std::to_string(store->snapshot()->num_records()) +
               " records, " +
               std::to_string(store->snapshot()->num_entities()) +
               " entities; " + std::to_string(kReadClients) +
               " closed-loop clients, no writer: wait time is zero by "
               "construction (HandleLine runs on the caller's thread)");
  report->Add("setup_s", Median(setups), "s", setups.size());
  Server server(store.get());

  const double window = options.trace ? options.seconds / 2 : options.seconds;
  ReadStats reads = ReadWindow(&server, *store, pool, window,
                               /*traced=*/false);
  report->ops().Merge(reads.ops);
  const double throughput = SlicedThroughput(reads);
  report->Add("throughput_per_s", throughput, "1/s",
              reads.slice_counts.size());
  const std::vector<double>& latency = reads.latency_ms.samples();
  report->Gate(reads.ops.failed() == 0,
               "every response is ok:true and re-parses (" +
                   std::to_string(reads.ops.attempted()) + " requests)");

  if (!options.trace) {
    report->AddPercentile("latency_p50_ms", latency, 0.5, "ms");
    report->AddPercentile("latency_p90_ms", latency, 0.9, "ms");
    std::optional<double> p99 = Percentile(latency, 0.99);
    if (p99.has_value()) {
      report->Note("request latency_p99_ms " + FormatExact(*p99) + " over " +
                   std::to_string(latency.size()) +
                   " sampled requests (per-layer metric serve.read_p99_ms)");
    }
  }
  // The composed calls answer the head of the pool as HandleLine does.
  std::vector<std::string> head(
      pool.begin(), pool.begin() + std::min(pool.size(), kComposedChecks));
  report->Gate(ComposedMismatches(&server, *store, head) == 0,
               "composed parse -> snapshot() -> Find/Ask answers equal "
               "HandleLine's (" +
                   std::to_string(head.size()) + " requests)");
  if (options.trace) {
    report->Add("storage.load_ms", Median(loads), "ms", loads.size());
    report->Add("store.bootstrap_ms", Median(creates), "ms", creates.size());
    report->AddPercentile("serve.read_p50_ms", latency, 0.5, "ms");
    report->AddPercentile("serve.read_p99_ms", latency, 0.99, "ms");
    bdi::metrics::SetEnabled(true);
    bdi::metrics::Registry::Get().Reset();
    ReadStats traced = ReadWindow(&server, *store, pool, options.seconds / 2,
                                  /*traced=*/true);
    const uint64_t probes = RegistryCounter("bdi.serve.query.shard_probes");
    bdi::metrics::SetEnabled(false);
    report->ops().Merge(traced.ops);
    report->Gate(traced.ops.failed() == 0,
                 "every traced request succeeds (" +
                     std::to_string(traced.ops.attempted()) + " requests)");
    AddTracedReadMetrics(traced, probes, report);
    report->Add("trace.overhead_ratio", SlicedThroughput(traced) / throughput,
                "ratio", traced.slice_counts.size());
    report->Add("trace.coverage_ratio", ReadCoverage(traced), "ratio",
                traced.ops.attempted());
  }
  AddProbeAccuracy(&server, options, report);
  store.reset();
  RemoveWal(wal_path);
}

namespace {

/// What the writer measured for one update batch.
struct BatchSample {
  double latency_ms = 0;  // HandleLine call to response
  double records = 0;
  double apply_ms = 0;
  double wal_ms = 0;
  double comparisons = 0;
  // Traced only: registry span deltas around the batch.
  double refresh_ms = 0, realign_ms = 0, incremental_ms = 0,
         fusion_refresh_ms = 0;
};

std::map<std::string, double> SpanTotalsMs() {
  std::map<std::string, double> totals;
  for (const bdi::metrics::SpanSample& span : bdi::trace::SnapshotSpans()) {
    totals[span.name] = span.wall_seconds * 1000.0;
  }
  return totals;
}

/// Reads a number member of an update response (0 when absent).
double NumberOf(const JsonValue& response, const char* key) {
  const JsonValue* member = Member(response, key, JsonValue::Kind::kNumber);
  return member == nullptr ? 0.0 : member->number;
}

/// The corpus a store bootstrapped in one batch would hold: the bootstrap
/// records, then every update record, interned the way the store interns
/// them.
bdi::Result<Dataset> OneBatchCorpus(const std::string& bootstrap,
                                    const std::vector<std::string>& updates) {
  BDI_ASSIGN_OR_RETURN(Dataset dataset,
                       bdi::storage::ReadDatasetAuto(bootstrap));
  std::map<std::string, bdi::SourceId> sources;
  for (const bdi::SourceInfo& source : dataset.sources()) {
    sources.emplace(source.name, source.id);
  }
  for (const std::string& line : updates) {
    BDI_ASSIGN_OR_RETURN(bdi::serve::Request request,
                         bdi::serve::ParseRequest(line));
    for (const bdi::serve::UpdateRecord& record : request.records) {
      auto [it, inserted] = sources.emplace(record.source, bdi::kInvalidSource);
      if (inserted) it->second = dataset.AddSource(record.source);
      dataset.AddRecord(it->second, record.fields);
    }
  }
  return dataset;
}

/// One drain: a fresh store on the bootstrap corpus, then the writer sends
/// every update line while one reader sends the find/ask mix.
struct Round {
  std::unique_ptr<EntityStore> store;
  std::string wal_path;
  double load_ms = 0, create_ms = 0;
  double drain_s = 0;
  std::vector<BatchSample> batches;
  /// The reader's measurements; serve-mixed reports no read throughput,
  /// so they hold no slices.
  ReadStats reads{0.0, 0, 1};
  OpCounter writes;
};

bool RunRound(const Options& options, const std::vector<std::string>& updates,
              const std::vector<std::string>& pool, int index, bool traced,
              Round* round, Report* report) {
  round->wal_path =
      options.work_dir + "/mixed-" + std::to_string(index) + ".wal";
  RemoveWal(round->wal_path);
  round->store =
      SetUp(options.corpus_dir + "/" + kBootstrapFile, round->wal_path,
            &round->load_ms, &round->create_ms, report);
  if (round->store == nullptr) return false;
  Server server(round->store.get());
  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    const double start = Now();
    for (const std::string& line : updates) {
      std::map<std::string, double> before;
      if (traced) before = SpanTotalsMs();
      const double t0 = Now();
      std::string response = server.HandleLine(line);
      BatchSample sample;
      sample.latency_ms = Ms(t0);
      if (traced) {
        std::map<std::string, double> after = SpanTotalsMs();
        auto delta = [&](const char* name) {
          return after[name] - before[name];
        };
        sample.refresh_ms = delta("refresh");
        sample.realign_ms = delta("refresh/schema");
        sample.incremental_ms = delta("refresh/linkage");
        sample.fusion_refresh_ms =
            delta("refresh/feedback") + delta("refresh/fusion");
      }
      if (!round->writes.Record(response)) continue;
      bdi::Result<JsonValue> parsed = bdi::serve::ParseJson(response);
      sample.apply_ms = NumberOf(*parsed, "apply_ms");
      sample.wal_ms = NumberOf(*parsed, "wal_ms");
      sample.comparisons = NumberOf(*parsed, "comparisons");
      sample.records = NumberOf(*parsed, "records");
      round->batches.push_back(sample);
    }
    round->drain_s = Now() - start;
    writer_done.store(true, std::memory_order_release);
  });
  ReadClient(
      &server, *round->store, pool, static_cast<size_t>(index) * 997, traced,
      [&] { return writer_done.load(std::memory_order_acquire); },
      &round->reads);
  writer.join();
  return true;
}

std::vector<double> Column(const std::vector<BatchSample>& batches,
                           double BatchSample::*field) {
  std::vector<double> values;
  for (const BatchSample& b : batches) values.push_back(b.*field);
  return values;
}

}  // namespace

void RunServeMixed(const Options& options, Report* report) {
  std::vector<std::string> updates =
      ReadCorpusLines(options, kUpdatesFile, report);
  std::vector<std::string> pool =
      ReadCorpusLines(options, kRequestsFile, report);
  if (updates.empty() || pool.empty()) return;
  NoteWalDevice(options.work_dir, report);

  // The state every drain must end in: a store bootstrapped in one batch
  // from the same records (no WAL).
  bdi::Result<Dataset> one_batch =
      OneBatchCorpus(options.corpus_dir + "/" + kBootstrapFile, updates);
  if (!one_batch.ok()) {
    report->Gate(false, "one-batch corpus: " + one_batch.status().message());
    return;
  }
  const size_t total_records = one_batch->num_records();
  std::string reference;
  {
    bdi::Result<std::unique_ptr<EntityStore>> store = EntityStore::Create(
        std::move(one_batch).value(), StoreConfigFor(""));
    if (!store.ok()) {
      report->Gate(false, "one-batch store: " + store.status().message());
      return;
    }
    reference = (*store)->snapshot()->DebugString();
  }

  // Untraced drains, then (traced runs) traced drains; each phase drains
  // for at least its share of the window.
  std::vector<double> setups, loads, creates, untraced_rates, traced_rates;
  std::vector<BatchSample> untraced_batches, traced_batches;
  ReadStats untraced_reads(0.0, 0, 1), traced_reads(0.0, 0, 1);
  uint64_t shard_probes = 0;
  std::unique_ptr<EntityStore> last;
  std::string last_wal;
  int index = 0;
  for (int phase = 0; phase < (options.trace ? 2 : 1); ++phase) {
    const bool traced = phase == 1;
    const double window =
        options.trace ? options.seconds / 2 : options.seconds;
    if (traced) {
      bdi::metrics::SetEnabled(true);
      bdi::metrics::Registry::Get().Reset();
      bdi::trace::ResetSpans();
    }
    double drained = 0;
    for (int r = 0; drained < window || r < 1; ++r) {
      if (last != nullptr) {
        last.reset();
        RemoveWal(last_wal);
      }
      Round round;
      if (!RunRound(options, updates, pool, index++, traced, &round,
                    report)) {
        return;
      }
      drained += round.drain_s;
      const std::string name = "drain " + std::to_string(index);
      report->Gate(round.writes.failed() == 0 &&
                       round.reads.ops.failed() == 0,
                   name + ": every update (" +
                       std::to_string(round.writes.attempted()) +
                       ") and read (" +
                       std::to_string(round.reads.ops.attempted()) +
                       ") response is ok:true and re-parses");
      report->Gate(round.store->snapshot()->DebugString() == reference,
                   name + ": final snapshot equals the one-batch store's");
      report->ops().Merge(round.writes);
      report->ops().Merge(round.reads.ops);
      double records = 0;
      for (const BatchSample& b : round.batches) records += b.records;
      (traced ? traced_rates : untraced_rates)
          .push_back(records / round.drain_s);
      if (!traced) {
        setups.push_back((round.load_ms + round.create_ms) / 1000.0);
        loads.push_back(round.load_ms);
        creates.push_back(round.create_ms);
      }
      std::vector<BatchSample>& batches =
          traced ? traced_batches : untraced_batches;
      batches.insert(batches.end(), round.batches.begin(),
                     round.batches.end());
      (traced ? traced_reads : untraced_reads).Merge(round.reads);
      last = std::move(round.store);
      last_wal = round.wal_path;
    }
    if (traced) {
      shard_probes = RegistryCounter("bdi.serve.query.shard_probes");
      bdi::metrics::SetEnabled(false);
    }
  }
  report->Note("store: bootstrap plus " + std::to_string(updates.size()) +
               " update batches = " + std::to_string(total_records) +
               " records; one writer beside one reader: wait time is zero "
               "by construction (no other writer takes the write mutex)");

  Server server(last.get());
  AddProbeAccuracy(&server, options, report);
  // Untimed restart: replaying the last drain's WAL lands on the same
  // state.
  last.reset();
  {
    double load_ms = 0, create_ms = 0;
    std::unique_ptr<EntityStore> restarted =
        SetUp(options.corpus_dir + "/" + kBootstrapFile, last_wal, &load_ms,
              &create_ms, report);
    report->Gate(restarted != nullptr &&
                     restarted->replayed_batches() == updates.size() &&
                     restarted->snapshot()->DebugString() == reference,
                 "restart from the WAL replays " +
                     std::to_string(updates.size()) +
                     " batches to the same snapshot");
  }
  RemoveWal(last_wal);

  // Top the set-up count up with set-ups that drain nothing.
  while (setups.size() < kMinMixedSetups) {
    const std::string wal_path = options.work_dir + "/mixed-setup.wal";
    RemoveWal(wal_path);
    double load_ms = 0, create_ms = 0;
    if (SetUp(options.corpus_dir + "/" + kBootstrapFile, wal_path, &load_ms,
              &create_ms, report) == nullptr) {
      return;
    }
    RemoveWal(wal_path);
    setups.push_back((load_ms + create_ms) / 1000.0);
    loads.push_back(load_ms);
    creates.push_back(create_ms);
  }
  report->Add("setup_s", Median(setups), "s", setups.size());
  // Update records applied per second over the writer's drain, as the
  // median over drains.
  report->Add("throughput_per_s", Median(untraced_rates), "1/s",
              untraced_rates.size());
  if (!options.trace) {
    const std::vector<double> latency =
        Column(untraced_batches, &BatchSample::latency_ms);
    report->AddPercentile("latency_p50_ms", latency, 0.5, "ms");
    report->AddPercentile("latency_p90_ms", latency, 0.9, "ms");
    const std::vector<double>& reads = untraced_reads.latency_ms.samples();
    std::optional<double> read_p50 = Percentile(reads, 0.5);
    if (read_p50.has_value()) {
      report->Note("read_p50_ms beside the writer " + FormatExact(*read_p50) +
                   " over " + std::to_string(reads.size()) +
                   " sampled reads (per-layer metric serve.read_p50_ms)");
    }
    return;
  }
  const size_t n = traced_batches.size();
  report->Add("storage.load_ms", Median(loads), "ms", loads.size());
  report->Add("store.bootstrap_ms", Median(creates), "ms", creates.size());
  report->Add("core.refresh_ms",
              Median(Column(traced_batches, &BatchSample::refresh_ms)), "ms",
              n);
  report->Add("schema.realign_ms",
              Median(Column(traced_batches, &BatchSample::realign_ms)), "ms",
              n);
  report->Add("linkage.incremental_ms",
              Median(Column(traced_batches, &BatchSample::incremental_ms)),
              "ms", n);
  report->Add("fusion.refresh_ms",
              Median(Column(traced_batches, &BatchSample::fusion_refresh_ms)),
              "ms", n);
  report->Add("linkage.batch_comparisons",
              Median(Column(traced_batches, &BatchSample::comparisons)),
              "count", n);
  report->Add("wal.append_ms",
              Median(Column(traced_batches, &BatchSample::wal_ms)), "ms", n);
  std::vector<double> publish, coverage;
  for (const BatchSample& b : traced_batches) {
    publish.push_back(b.apply_ms - b.wal_ms - b.refresh_ms);
    coverage.push_back(b.apply_ms / b.latency_ms);
  }
  report->Add("store.publish_ms", Median(publish), "ms", n);
  report->AddPercentile("serve.read_p50_ms",
                        untraced_reads.latency_ms.samples(), 0.5, "ms");
  report->AddPercentile("serve.read_p99_ms",
                        untraced_reads.latency_ms.samples(), 0.99, "ms");
  AddTracedReadMetrics(traced_reads, shard_probes, report);
  report->Add("trace.overhead_ratio",
              Median(traced_rates) / Median(untraced_rates), "ratio",
              traced_rates.size());
  report->Add("trace.coverage_ratio", Median(coverage), "ratio", n);
}

}  // namespace perfbench
