// Golden-value coverage for the allocation-free similarity kernels: the
// scratch-buffer / interned forms must reproduce the string-based
// reference implementations bit for bit — including the edge cases the
// matcher's hot path hits (empty strings, unicode bytes, single tokens,
// all-match, no-match) — and a reused scratch must never leak state
// between calls.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "bdi/text/interner.h"
#include "bdi/text/similarity.h"
#include "bdi/text/tokenizer.h"

namespace bdi::text {
namespace {

/// max(ME(a,b), ME(b,a)) via the two-pass string reference — the exact
/// expression the matcher used before the interned one-pass kernel.
double ReferenceSymmetricMongeElkan(const std::string& a,
                                    const std::string& b) {
  return std::max(MongeElkanSimilarity(a, b), MongeElkanSimilarity(b, a));
}

/// Interned one-pass form of the same value, fresh interner per call.
double InternedSymmetricMongeElkan(const std::string& a,
                                   const std::string& b,
                                   SimilarityScratch& scratch) {
  TokenInterner interner;
  std::vector<TokenId> ta = InternTokens(interner, WordTokens(a));
  std::vector<TokenId> tb = InternTokens(interner, WordTokens(b));
  return SymmetricMongeElkan(interner, ta, tb, scratch);
}

const char* const kEdgeCases[] = {
    "",                          // empty
    "x",                         // single char / single token
    "canon",                     // single token
    "canon eos 5d mark iv",      // multi token
    "canon  eos\t5d",            // repeated separators
    "CANON EOS 5D",              // case folding
    "caf\xc3\xa9 r\xc3\xa9sum\xc3\xa9",  // utf-8 bytes (non-ascii)
    "\xc3\xa9\xc3\xa9",          // only non-ascii bytes
    "5d 5d 5d",                  // duplicate tokens
    "zzzz qqqq",                 // no-match partner for most cases
};

TEST(KernelGoldenTest, JaroWinklerScratchMatchesStringForm) {
  SimilarityScratch scratch;
  for (const char* a : kEdgeCases) {
    for (const char* b : kEdgeCases) {
      EXPECT_EQ(JaroWinklerSimilarity(a, b),
                JaroWinklerSimilarity(a, b, scratch))
          << "a=\"" << a << "\" b=\"" << b << "\"";
    }
  }
}

TEST(KernelGoldenTest, JaroWinklerKnownValues) {
  SimilarityScratch scratch;
  EXPECT_EQ(JaroWinklerSimilarity("", "", scratch), 1.0);        // both empty
  EXPECT_EQ(JaroWinklerSimilarity("", "abc", scratch), 0.0);     // one empty
  EXPECT_EQ(JaroWinklerSimilarity("abc", "abc", scratch), 1.0);  // all-match
  EXPECT_EQ(JaroWinklerSimilarity("abc", "xyz", scratch), 0.0);  // no-match
}

TEST(KernelGoldenTest, SymmetricMongeElkanMatchesTwoPassReference) {
  SimilarityScratch scratch;
  for (const char* a : kEdgeCases) {
    for (const char* b : kEdgeCases) {
      EXPECT_EQ(ReferenceSymmetricMongeElkan(a, b),
                InternedSymmetricMongeElkan(a, b, scratch))
          << "a=\"" << a << "\" b=\"" << b << "\"";
    }
  }
}

TEST(KernelGoldenTest, JaccardIdsMatchesStringForm) {
  for (const char* a : kEdgeCases) {
    for (const char* b : kEdgeCases) {
      TokenInterner interner;
      std::vector<TokenId> ia = InternTokenSet(interner, TokenSet(a));
      std::vector<TokenId> ib = InternTokenSet(interner, TokenSet(b));
      EXPECT_EQ(JaccardSimilarity(TokenSet(a), TokenSet(b)),
                JaccardSimilarityIds(ia, ib))
          << "a=\"" << a << "\" b=\"" << b << "\"";
    }
  }
}

/// Random byte strings (including non-ascii and separators) with a fixed
/// seed; mt19937 output is standardized, so the fuzz corpus is stable.
std::vector<std::string> FuzzStrings(size_t count) {
  std::mt19937 rng(20130408);
  // A small alphabet keeps token collisions frequent (the interesting
  // regime for match/transposition counting and interning).
  const std::string alphabet = "abc12 -\xc3\xa9.";
  std::uniform_int_distribution<size_t> len_dist(0, 24);
  std::uniform_int_distribution<size_t> char_dist(0, alphabet.size() - 1);
  std::vector<std::string> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    std::string s;
    size_t len = len_dist(rng);
    for (size_t c = 0; c < len; ++c) s.push_back(alphabet[char_dist(rng)]);
    out.push_back(std::move(s));
  }
  return out;
}

TEST(KernelFuzzTest, ScratchKernelsMatchStringKernels) {
  std::vector<std::string> corpus = FuzzStrings(120);
  SimilarityScratch scratch;
  for (size_t i = 0; i < corpus.size(); ++i) {
    const std::string& a = corpus[i];
    const std::string& b = corpus[(i * 7 + 13) % corpus.size()];
    EXPECT_EQ(JaroWinklerSimilarity(a, b),
              JaroWinklerSimilarity(a, b, scratch));
    EXPECT_EQ(ReferenceSymmetricMongeElkan(a, b),
              InternedSymmetricMongeElkan(a, b, scratch));
  }
}

// The one-pass Monge-Elkan serves ME(b,a) from the same Jaro-Winkler
// matrix as ME(a,b), which is only sound because greedy band matching
// produces the same match and transposition counts in either direction.
TEST(KernelFuzzTest, JaroWinklerIsExactlySymmetric) {
  std::vector<std::string> corpus = FuzzStrings(200);
  SimilarityScratch scratch;
  for (size_t i = 0; i + 1 < corpus.size(); ++i) {
    const std::string& a = corpus[i];
    const std::string& b = corpus[i + 1];
    EXPECT_EQ(JaroWinklerSimilarity(a, b, scratch),
              JaroWinklerSimilarity(b, a, scratch))
        << "a=\"" << a << "\" b=\"" << b << "\"";
  }
}

TEST(KernelFuzzTest, ReusedScratchLeaksNoState) {
  // Interleave wildly different sizes so stale match flags would surface.
  SimilarityScratch scratch;
  std::vector<std::string> corpus = FuzzStrings(60);
  for (const std::string& a : corpus) {
    for (const std::string& b : {std::string(), std::string("a"),
                                 std::string(200, 'q'), a}) {
      EXPECT_EQ(JaroWinklerSimilarity(a, b),
                JaroWinklerSimilarity(a, b, scratch));
    }
  }
}

TEST(TokenInternerTest, InternLookupRoundTrip) {
  TokenInterner interner;
  TokenId canon = interner.Intern("canon");
  TokenId eos = interner.Intern("eos");
  EXPECT_NE(canon, eos);
  EXPECT_EQ(interner.Intern("canon"), canon);  // idempotent
  EXPECT_EQ(interner.Lookup("canon"), canon);
  EXPECT_EQ(interner.Lookup("never-seen"), kInvalidToken);
  EXPECT_EQ(interner.token(canon), "canon");
  EXPECT_EQ(interner.token(eos), "eos");
  EXPECT_EQ(interner.size(), 2u);
}

TEST(TokenInternerTest, InternTokenSetSortsByIdAndKeepsSetSemantics) {
  TokenInterner interner;
  // Force ids out of lexicographic order: "zeta" gets a smaller id.
  interner.Intern("zeta");
  std::vector<TokenId> ids =
      InternTokenSet(interner, {"alpha", "beta", "zeta"});
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
  // Same set interned twice yields the same ids.
  EXPECT_EQ(InternTokenSet(interner, {"alpha", "beta", "zeta"}), ids);
}

}  // namespace
}  // namespace bdi::text
