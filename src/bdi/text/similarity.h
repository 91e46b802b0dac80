#ifndef BDI_TEXT_SIMILARITY_H_
#define BDI_TEXT_SIMILARITY_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "bdi/text/interner.h"

namespace bdi::text {

/// Grow-only memo of a pure per-token-pair kernel value, keyed by the two
/// interned token ids ((a << 32) | b) in an open-addressing table. The
/// Monge-Elkan kernels use one per kernel to skip recomputing
/// Jaro-Winkler for token pairs this scratch has already seen — a hit
/// returns exactly the bits the recompute would produce, so memo state
/// never changes results, only work. `vocabulary_uid` records which
/// TokenInterner's ids the entries are keyed by; a kernel invoked under a
/// different uid resets the table instead of misreading foreign ids.
struct TokenPairMemo {
  /// Key slots; empty slots hold ~0. Size is always a power of two.
  std::vector<uint64_t> keys;
  /// values[i] is the kernel value for keys[i].
  std::vector<double> values;
  /// Occupied slots; the table doubles at 50% load.
  size_t used = 0;
  /// TokenInterner::uid() the keys belong to (0 = unbound).
  uint64_t vocabulary_uid = 0;
};

/// Reusable working memory for the allocation-free similarity kernels.
/// Ownership rule (see DESIGN.md): the *caller* owns the scratch, creates
/// one per worker thread, and reuses it across calls — kernels only grow
/// the buffers (never shrink), so steady-state calls allocate nothing.
/// A scratch must never be shared between concurrently running kernels;
/// every kernel fully re-initializes the ranges it reads — except the
/// memo tables, which deliberately persist across calls (they cache pure
/// function values, so carrying them over changes work, not results).
struct SimilarityScratch {
  /// Jaro match flags for the two strings (uint8_t: vector<bool> proxies
  /// cost a masked read-modify-write per flag).
  std::vector<uint8_t> a_matched;
  std::vector<uint8_t> b_matched;
  /// Per-column running maxima of the token-pair similarity matrix
  /// (symmetric Monge-Elkan's second direction).
  std::vector<double> col_best;
  /// Per-token-pair Jaro-Winkler values (SymmetricMongeElkan's cells).
  /// Only the full kernel memoizes: its cells cost hundreds of
  /// nanoseconds and its pair space (prefilter survivors) stays small
  /// enough for the table to sit in cache. The bound kernel's cells are
  /// cheaper than a probe and its pair space is the whole candidate set.
  TokenPairMemo jw_memo;
};

/// Jaro similarity in [0, 1].
double JaroSimilarity(std::string_view a, std::string_view b);

/// Scratch-buffer form of JaroSimilarity; identical result bit for bit.
double JaroSimilarity(std::string_view a, std::string_view b,
                      SimilarityScratch& scratch);

/// Jaro-Winkler with standard prefix scaling (p = 0.1, max prefix 4).
double JaroWinklerSimilarity(std::string_view a, std::string_view b);

/// Scratch-buffer form of JaroWinklerSimilarity; identical result.
double JaroWinklerSimilarity(std::string_view a, std::string_view b,
                             SimilarityScratch& scratch);

/// |A ∩ B| / |A ∪ B| over sorted unique token vectors; 1.0 if both empty.
double JaccardSimilarity(const std::vector<std::string>& a,
                         const std::vector<std::string>& b);

/// Jaccard over interned token-id sets (sorted by id, unique). Produces
/// the same value as the string form on the same token sets: intersection
/// and union sizes do not depend on which total order sorted the inputs.
/// (Distinctly named, not an overload: braced-init callers of the string
/// form would otherwise become ambiguous.)
double JaccardSimilarityIds(const std::vector<TokenId>& a,
                            const std::vector<TokenId>& b);

/// |A ∩ B| / min(|A|, |B|); 1.0 if both sets are empty, 0.0 if exactly one
/// is empty.
double OverlapCoefficient(const std::vector<std::string>& a,
                          const std::vector<std::string>& b);

/// Monge-Elkan: average over tokens of `a` of the best Jaro-Winkler match in
/// `b`. Asymmetric; callers usually take max(ME(a,b), ME(b,a)).
double MongeElkanSimilarity(std::string_view a, std::string_view b);

/// Symmetric Monge-Elkan, max(ME(a,b), ME(b,a)), over interned word-token
/// sequences (order- and duplicate-preserving, as WordTokens emits them).
/// Both directions come from ONE traversal of the token-pair Jaro-Winkler
/// matrix — row maxima feed ME(a,b), running column maxima feed ME(b,a) —
/// and equal-id pairs short-circuit to 1.0 (Jaro-Winkler of a string with
/// itself is exactly 1.0). Bit-identical to the two-pass string form:
/// accumulation visits the same values in the same order, and Jaro-Winkler
/// is exactly symmetric (greedy band matching yields the same match and
/// transposition counts in either direction).
double SymmetricMongeElkan(const TokenInterner& interner,
                           const std::vector<TokenId>& a,
                           const std::vector<TokenId>& b,
                           SimilarityScratch& scratch);

/// Character classes a TokenSignature counts: 'a'-'z' (26), '0'-'9' (10),
/// plus one shared bucket for every other byte. Folding "other" bytes into
/// one class can only overestimate the shared-character count, which keeps
/// every bound built on the signatures sound.
inline constexpr size_t kSignatureClasses = 37;

/// Cheap per-token summary the bounded kernels work from: length, first
/// character, and a per-class character histogram (counts saturate at 255;
/// `class_mask` has bit c set iff class c occurs). Signatures are computed
/// once per distinct token — the interner makes that cheap — and a bound
/// over two signatures costs a handful of integer operations instead of
/// the kernel's band scan. The histogram intersection behind every
/// signature bound walks only the classes set in both masks: word tokens
/// share a handful of classes, so the walk touches a few bytes.
struct TokenSignature {
  uint32_t length = 0;
  char first = '\0';
  uint64_t class_mask = 0;
  std::array<uint8_t, kSignatureClasses> class_counts{};
};

/// Builds the signature of `token`.
TokenSignature MakeTokenSignature(std::string_view token);

/// Upper bound on JaroWinklerSimilarity of the two tokens: the Jaro term
/// is bounded by ((m/|x| + m/|y| + 1) / 3) at m = an upper bound on the
/// Jaro match count from the two histograms (transpositions only lower
/// the true value), and the Winkler prefix term assumes the longest
/// admissible prefix when the first characters agree and zero otherwise.
/// Guaranteed >= the true Jaro-Winkler value.
double JaroWinklerUpperBound(const TokenSignature& x,
                             const TokenSignature& y);

/// Upper bound on SymmetricMongeElkan over interned word sequences, using
/// only the per-token signatures (indexed by TokenId): the same
/// row-maxima / column-maxima traversal as the real kernel, with each
/// token-pair cell bounded by JaroWinklerUpperBound (1.0 exactly for
/// equal ids). Costs O(|a| * |b|) integer work — no dynamic programs, no
/// string accesses — and is guaranteed >= the true kernel value, which is
/// what lets the matcher's prefilter skip pairs whose bound cannot reach
/// the match threshold. `scratch` follows the usual caller-owned rule
/// (allocation-free once warm).
double SymmetricMongeElkanUpperBound(
    const std::vector<TokenSignature>& signatures,
    const std::vector<TokenId>& a, const std::vector<TokenId>& b,
    SimilarityScratch& scratch);

/// Similarity of two numbers: 1 when equal, decaying with relative
/// difference; 0 when one is not parseable as a number.
double NumericSimilarity(std::string_view a, std::string_view b);

/// Post-parse core of NumericSimilarity over already-parsed values: 1 when
/// equal, else 1 - |va - vb| / max(|va|, |vb|) floored at 0. Callers that
/// parse each value once (per record, not per pair) get bitwise-identical
/// results to the string form. A NaN operand yields exactly 0.0 (every
/// comparison with NaN is false, so the final max returns its 0.0 arm),
/// which lets callers encode "not numeric" as NaN.
inline double NumericSimilarityValues(double va, double vb) {
  if (va == vb) return 1.0;
  double denom = std::max(std::abs(va), std::abs(vb));
  if (denom == 0.0) return 1.0;
  double rel = std::abs(va - vb) / denom;
  return std::max(0.0, 1.0 - rel);
}

}  // namespace bdi::text

#endif  // BDI_TEXT_SIMILARITY_H_
