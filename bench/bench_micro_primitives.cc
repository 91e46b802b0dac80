// Microbenchmarks (google-benchmark) for the hot primitives: similarity
// measures, tokenization and blocking-key generation. These are the inner
// loops of the pairwise-matching stage.
//
// With `--json`, skips google-benchmark and instead times the
// signature-bound kernels at every supported SIMD dispatch level
// (scalar, sse2, avx2 — see bdi::cpu), writing
// BENCH_micro_primitives.json in the same schema as the other benches:
// one entry per kernel/level with wall seconds and ops/sec
// (ns/op = 1e9 / items_per_sec).
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bdi/common/cpu.h"
#include "bdi/common/random.h"
#include "bdi/common/timer.h"
#include "bdi/text/interner.h"
#include "bdi/text/similarity.h"
#include "bdi/text/tokenizer.h"
#include "bench_util.h"

namespace {

using namespace bdi;

std::string MakeName(Rng* rng) {
  static const char* kBrands[] = {"zorix", "calon", "venar", "mirata"};
  std::string name = kBrands[rng->UniformInt(0, 3)];
  name += " ";
  name.push_back(static_cast<char>('a' + rng->UniformInt(0, 25)));
  name.push_back(static_cast<char>('a' + rng->UniformInt(0, 25)));
  name += "-" + std::to_string(rng->UniformInt(100, 9999)) + " camera";
  return name;
}

void BM_JaroWinkler(benchmark::State& state) {
  Rng rng(1);
  std::string a = MakeName(&rng), b = MakeName(&rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(text::JaroWinklerSimilarity(a, b));
  }
}
BENCHMARK(BM_JaroWinkler);

void BM_EditDistance(benchmark::State& state) {
  Rng rng(2);
  std::string a = MakeName(&rng), b = MakeName(&rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(text::EditDistance(a, b));
  }
}
BENCHMARK(BM_EditDistance);

void BM_MongeElkan(benchmark::State& state) {
  Rng rng(3);
  std::string a = MakeName(&rng), b = MakeName(&rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(text::MongeElkanSimilarity(a, b));
  }
}
BENCHMARK(BM_MongeElkan);

void BM_TokenJaccard(benchmark::State& state) {
  Rng rng(4);
  std::string a = MakeName(&rng), b = MakeName(&rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(text::TokenJaccard(a, b));
  }
}
BENCHMARK(BM_TokenJaccard);

void BM_JaroWinklerUpperBound(benchmark::State& state) {
  Rng rng(8);
  text::TokenSignature a = text::MakeTokenSignature(MakeName(&rng));
  text::TokenSignature b = text::MakeTokenSignature(MakeName(&rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(text::JaroWinklerUpperBound(a, b));
  }
}
BENCHMARK(BM_JaroWinklerUpperBound);

void BM_WordTokens(benchmark::State& state) {
  Rng rng(5);
  std::string a = MakeName(&rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(text::WordTokens(a));
  }
}
BENCHMARK(BM_WordTokens);

void BM_IdentifierTokens(benchmark::State& state) {
  Rng rng(6);
  std::string a = MakeName(&rng) + " sku" + std::to_string(100000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(text::IdentifierTokens(a, 4));
  }
}
BENCHMARK(BM_IdentifierTokens);

// ---------------------------------------------------------------------------
// --json mode: signature-bound kernels per SIMD dispatch level.

/// Fixed corpus of token pairs the per-level timings all run over, so
/// levels differ only in instruction selection, never workload.
struct KernelCorpus {
  std::vector<text::TokenSignature> x;
  std::vector<text::TokenSignature> y;
  text::TokenInterner interner;
  std::vector<text::TokenSignature> signatures;  // indexed by TokenId
  std::vector<std::vector<text::TokenId>> seq_a;
  std::vector<std::vector<text::TokenId>> seq_b;
};

KernelCorpus MakeCorpus() {
  KernelCorpus corpus;
  Rng rng(42);
  for (int i = 0; i < 512; ++i) {
    corpus.x.push_back(text::MakeTokenSignature(MakeName(&rng)));
    corpus.y.push_back(text::MakeTokenSignature(MakeName(&rng)));
  }
  for (int i = 0; i < 64; ++i) {
    std::vector<text::TokenId> a, b;
    for (const std::string& token : text::WordTokens(MakeName(&rng))) {
      a.push_back(corpus.interner.Intern(token));
    }
    for (const std::string& token : text::WordTokens(MakeName(&rng))) {
      b.push_back(corpus.interner.Intern(token));
    }
    corpus.seq_a.push_back(std::move(a));
    corpus.seq_b.push_back(std::move(b));
  }
  for (text::TokenId id = 0; id < corpus.interner.size(); ++id) {
    corpus.signatures.push_back(
        text::MakeTokenSignature(corpus.interner.token(id)));
  }
  return corpus;
}

/// Times `op(i)` over `ops` evaluations (cycling a corpus of `span`
/// distinct inputs) and records it as `<kernel>/<level>`.
template <typename Op>
void TimeKernel(bench::JsonReporter& json, const std::string& kernel,
                const char* level, size_t ops, size_t span, Op op) {
  // One warm-up sweep so first-touch cache misses don't bill to the first
  // level measured.
  double sink = 0.0;
  for (size_t i = 0; i < span; ++i) sink += op(i);
  WallTimer timer;
  for (size_t i = 0; i < ops; ++i) sink += op(i % span);
  double seconds = timer.ElapsedSeconds();
  // Keep `sink` live so the whole loop cannot be dead-code eliminated.
  benchmark::DoNotOptimize(sink);
  double ops_per_sec = seconds > 0.0 ? static_cast<double>(ops) / seconds : 0;
  json.Add("micro/" + kernel + "/" + level, seconds, 1, ops_per_sec);
  std::printf("%-36s %-7s %8.1f ns/op\n", kernel.c_str(), level,
              ops_per_sec > 0.0 ? 1e9 / ops_per_sec : 0.0);
}

int RunJsonMode(int argc, char** argv) {
  bench::Banner("E0", "hot-primitive microbenchmarks (signature kernels)",
                "integer signature bounds drop sharply from scalar to "
                "sse2/avx2; the double-kernel reference rows are "
                "level-invariant");
  bench::BenchMain bench_main("micro_primitives", argc, argv);
  bench::JsonReporter& json = bench_main.json();
  KernelCorpus corpus = MakeCorpus();
  text::SimilarityScratch scratch;
  json.Note("simd_detected",
            std::string("\"") +
                cpu::SimdLevelName(cpu::DetectedSimdLevel()) + "\"");

  std::vector<cpu::SimdLevel> levels = {cpu::SimdLevel::kScalar};
  if (cpu::DetectedSimdLevel() >= cpu::SimdLevel::kSse2) {
    levels.push_back(cpu::SimdLevel::kSse2);
  }
  if (cpu::DetectedSimdLevel() >= cpu::SimdLevel::kAvx2) {
    levels.push_back(cpu::SimdLevel::kAvx2);
  }
  constexpr size_t kOps = 2'000'000;
  constexpr size_t kSeqOps = 200'000;
  for (cpu::SimdLevel level : levels) {
    cpu::SetSimdLevel(level);
    const char* name = cpu::SimdLevelName(level);
    TimeKernel(json, "jaro_match_upper_bound", name, kOps, corpus.x.size(),
               [&](size_t i) {
                 return static_cast<double>(
                     text::JaroMatchUpperBound(corpus.x[i], corpus.y[i]));
               });
    TimeKernel(json, "edit_distance_lower_bound", name, kOps,
               corpus.x.size(), [&](size_t i) {
                 return static_cast<double>(text::EditDistanceLowerBound(
                     corpus.x[i], corpus.y[i]));
               });
    TimeKernel(json, "jaro_winkler_upper_bound", name, kOps,
               corpus.x.size(), [&](size_t i) {
                 return text::JaroWinklerUpperBound(corpus.x[i],
                                                    corpus.y[i]);
               });
    TimeKernel(json, "monge_elkan_upper_bound", name, kSeqOps,
               corpus.seq_a.size(), [&](size_t i) {
                 return text::SymmetricMongeElkanUpperBound(
                     corpus.signatures, corpus.seq_a[i], corpus.seq_b[i],
                     scratch);
               });
  }
  cpu::SetSimdLevel(cpu::DetectedSimdLevel());
  // Level-invariant reference row: the full double kernel the bounds are
  // protecting, timed once at the detected level.
  TimeKernel(json, "symmetric_monge_elkan",
             cpu::SimdLevelName(cpu::ActiveSimdLevel()), kSeqOps,
             corpus.seq_a.size(), [&](size_t i) {
               return text::SymmetricMongeElkan(corpus.interner,
                                                corpus.seq_a[i],
                                                corpus.seq_b[i], scratch);
             });
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      return RunJsonMode(argc, argv);
    }
  }
  benchmark::Initialize(&argc, &argv[0]);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
