// Microbenchmarks (google-benchmark) for the hot primitives: similarity
// measures, tokenization and blocking-key generation. These are the inner
// loops of the pairwise-matching stage.
//
// With `--json`, skips google-benchmark and instead times the
// signature-bound kernels and the Monge-Elkan kernel they protect,
// writing BENCH_micro_primitives.json in the same schema as the other
// benches: one entry per kernel with wall seconds and ops/sec
// (ns/op = 1e9 / items_per_sec).
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

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

void BM_MongeElkan(benchmark::State& state) {
  Rng rng(3);
  std::string a = MakeName(&rng), b = MakeName(&rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(text::MongeElkanSimilarity(a, b));
  }
}
BENCHMARK(BM_MongeElkan);

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
// --json mode: signature-bound kernels and the kernel they bound.

/// Fixed corpus of token pairs and token sequences every timing runs over.
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
/// distinct inputs) and records it as `micro/<kernel>`.
template <typename Op>
void TimeKernel(bench::JsonReporter& json, const std::string& kernel,
                size_t ops, size_t span, Op op) {
  // One warm-up sweep so first-touch cache misses don't bill to the first
  // kernel measured.
  double sink = 0.0;
  for (size_t i = 0; i < span; ++i) sink += op(i);
  WallTimer timer;
  for (size_t i = 0; i < ops; ++i) sink += op(i % span);
  double seconds = timer.ElapsedSeconds();
  // Keep `sink` live so the whole loop cannot be dead-code eliminated.
  benchmark::DoNotOptimize(sink);
  double ops_per_sec = seconds > 0.0 ? static_cast<double>(ops) / seconds : 0;
  json.Add("micro/" + kernel, seconds, 1, ops_per_sec);
  std::printf("%-36s %8.1f ns/op\n", kernel.c_str(),
              ops_per_sec > 0.0 ? 1e9 / ops_per_sec : 0.0);
}

int RunJsonMode(int argc, char** argv) {
  bench::Banner("E0", "hot-primitive microbenchmarks (signature kernels)",
                "a Jaro-Winkler signature bound costs tens of ns with no "
                "string access; on this cycled corpus the full Monge-Elkan "
                "row runs memo-warm, below its own bound");
  bench::BenchMain bench_main("micro_primitives", argc, argv);
  bench::JsonReporter& json = bench_main.json();
  KernelCorpus corpus = MakeCorpus();
  text::SimilarityScratch scratch;
  constexpr size_t kOps = 2'000'000;
  constexpr size_t kSeqOps = 200'000;
  TimeKernel(json, "jaro_winkler_upper_bound", kOps, corpus.x.size(),
             [&](size_t i) {
               return text::JaroWinklerUpperBound(corpus.x[i], corpus.y[i]);
             });
  TimeKernel(json, "monge_elkan_upper_bound", kSeqOps, corpus.seq_a.size(),
             [&](size_t i) {
               return text::SymmetricMongeElkanUpperBound(
                   corpus.signatures, corpus.seq_a[i], corpus.seq_b[i],
                   scratch);
             });
  // The full kernel the bounds protect.
  TimeKernel(json, "symmetric_monge_elkan", kSeqOps, corpus.seq_a.size(),
             [&](size_t i) {
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
