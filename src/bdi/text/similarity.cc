#include "bdi/text/similarity.h"

#include <algorithm>
#include <bit>

#include "bdi/common/string_util.h"
#include "bdi/text/tokenizer.h"

namespace bdi::text {

namespace {

/// Size of the intersection of two sorted unique vectors.
size_t SortedIntersectionSize(const std::vector<std::string>& a,
                              const std::vector<std::string>& b) {
  size_t i = 0, j = 0, common = 0;
  while (i < a.size() && j < b.size()) {
    int cmp = a[i].compare(b[j]);
    if (cmp == 0) {
      ++common;
      ++i;
      ++j;
    } else if (cmp < 0) {
      ++i;
    } else {
      ++j;
    }
  }
  return common;
}

}  // namespace

double JaroSimilarity(std::string_view a, std::string_view b) {
  SimilarityScratch scratch;
  return JaroSimilarity(a, b, scratch);
}

double JaroSimilarity(std::string_view a, std::string_view b,
                      SimilarityScratch& scratch) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  size_t match_window =
      std::max<size_t>(1, std::max(a.size(), b.size()) / 2) - 1;
  std::vector<uint8_t>& a_matched = scratch.a_matched;
  std::vector<uint8_t>& b_matched = scratch.b_matched;
  a_matched.assign(a.size(), 0);
  b_matched.assign(b.size(), 0);
  size_t matches = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    size_t lo = i > match_window ? i - match_window : 0;
    size_t hi = std::min(b.size(), i + match_window + 1);
    for (size_t j = lo; j < hi; ++j) {
      if (b_matched[j] == 0 && a[i] == b[j]) {
        a_matched[i] = 1;
        b_matched[j] = 1;
        ++matches;
        break;
      }
    }
  }
  if (matches == 0) return 0.0;
  // Count transpositions between the matched subsequences.
  size_t transpositions = 0;
  size_t j = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a_matched[i] == 0) continue;
    while (b_matched[j] == 0) ++j;
    if (a[i] != b[j]) ++transpositions;
    ++j;
  }
  double m = static_cast<double>(matches);
  double t = static_cast<double>(transpositions) / 2.0;
  return (m / static_cast<double>(a.size()) +
          m / static_cast<double>(b.size()) + (m - t) / m) /
         3.0;
}

double JaroWinklerSimilarity(std::string_view a, std::string_view b) {
  SimilarityScratch scratch;
  return JaroWinklerSimilarity(a, b, scratch);
}

double JaroWinklerSimilarity(std::string_view a, std::string_view b,
                             SimilarityScratch& scratch) {
  double jaro = JaroSimilarity(a, b, scratch);
  size_t prefix = 0;
  size_t max_prefix = std::min<size_t>({4, a.size(), b.size()});
  while (prefix < max_prefix && a[prefix] == b[prefix]) ++prefix;
  constexpr double kScaling = 0.1;
  return jaro + static_cast<double>(prefix) * kScaling * (1.0 - jaro);
}

double JaccardSimilarity(const std::vector<std::string>& a,
                         const std::vector<std::string>& b) {
  if (a.empty() && b.empty()) return 1.0;
  size_t common = SortedIntersectionSize(a, b);
  size_t unions = a.size() + b.size() - common;
  if (unions == 0) return 1.0;
  return static_cast<double>(common) / static_cast<double>(unions);
}

double JaccardSimilarityIds(const std::vector<TokenId>& a,
                            const std::vector<TokenId>& b) {
  if (a.empty() && b.empty()) return 1.0;
  size_t i = 0, j = 0, common = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++common;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  size_t unions = a.size() + b.size() - common;
  if (unions == 0) return 1.0;
  return static_cast<double>(common) / static_cast<double>(unions);
}

double OverlapCoefficient(const std::vector<std::string>& a,
                          const std::vector<std::string>& b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  size_t common = SortedIntersectionSize(a, b);
  return static_cast<double>(common) /
         static_cast<double>(std::min(a.size(), b.size()));
}

double MongeElkanSimilarity(std::string_view a, std::string_view b) {
  std::vector<std::string> ta = WordTokens(a);
  std::vector<std::string> tb = WordTokens(b);
  if (ta.empty() && tb.empty()) return 1.0;
  if (ta.empty() || tb.empty()) return 0.0;
  double total = 0.0;
  for (const std::string& x : ta) {
    double best = 0.0;
    for (const std::string& y : tb) {
      best = std::max(best, JaroWinklerSimilarity(x, y));
    }
    total += best;
  }
  return total / static_cast<double>(ta.size());
}

namespace {

/// Empty-slot sentinel in TokenPairMemo key tables (no real key is ~0:
/// that would need both token ids to be kInvalidToken).
constexpr uint64_t kEmptyMemoKey = ~uint64_t{0};

/// Slot of `key` in an open-addressing table (linear probing): either the
/// slot holding the key or the empty slot where it belongs.
size_t MemoProbe(const std::vector<uint64_t>& keys, uint64_t key) {
  size_t mask = keys.size() - 1;
  size_t slot =
      static_cast<size_t>((key * uint64_t{0x9E3779B97F4A7C15}) >> 32) & mask;
  while (keys[slot] != kEmptyMemoKey && keys[slot] != key) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

/// Binds `memo` to `vocabulary_uid`, resetting the table when the scratch
/// last served a different vocabulary (foreign ids must never be read as
/// hits) and allocating it on first use.
void MemoBind(TokenPairMemo& memo, uint64_t vocabulary_uid) {
  if (memo.vocabulary_uid == vocabulary_uid && !memo.keys.empty()) return;
  size_t size = memo.keys.empty() ? 1024 : memo.keys.size();
  memo.keys.assign(size, kEmptyMemoKey);
  memo.values.assign(size, 0.0);
  memo.used = 0;
  memo.vocabulary_uid = vocabulary_uid;
}

/// Doubles the table, rehashing every occupied slot.
void MemoGrow(TokenPairMemo& memo) {
  std::vector<uint64_t> old_keys = std::move(memo.keys);
  std::vector<double> old_values = std::move(memo.values);
  memo.keys.assign(old_keys.size() * 2, kEmptyMemoKey);
  memo.values.assign(old_values.size() * 2, 0.0);
  for (size_t i = 0; i < old_keys.size(); ++i) {
    if (old_keys[i] == kEmptyMemoKey) continue;
    size_t slot = MemoProbe(memo.keys, old_keys[i]);
    memo.keys[slot] = old_keys[i];
    memo.values[slot] = old_values[i];
  }
}

/// Inserts a freshly computed value, growing first when the table would
/// pass 50% load.
void MemoInsert(TokenPairMemo& memo, uint64_t key, double value) {
  if (memo.used * 2 >= memo.keys.size()) MemoGrow(memo);
  size_t slot = MemoProbe(memo.keys, key);
  memo.keys[slot] = key;
  memo.values[slot] = value;
  ++memo.used;
}

}  // namespace

double SymmetricMongeElkan(const TokenInterner& interner,
                           const std::vector<TokenId>& a,
                           const std::vector<TokenId>& b,
                           SimilarityScratch& scratch) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  // One traversal of the |a| x |b| Jaro-Winkler matrix. Row maxima are
  // folded immediately into total_a (ME(a,b)); column maxima accumulate in
  // scratch.col_best and sum into total_b (ME(b,a)) afterwards. Both
  // reductions visit the same values in the same order as the two
  // independent string passes, so the result is bit-identical. Cell
  // values come from the scratch's pair memo when this scratch has seen
  // the token pair before — Jaro-Winkler is pure, so a hit is the exact
  // bits the recompute would produce.
  TokenPairMemo& memo = scratch.jw_memo;
  MemoBind(memo, interner.uid());
  std::vector<double>& col_best = scratch.col_best;
  col_best.assign(b.size(), 0.0);
  double total_a = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const std::string& x = interner.token(a[i]);
    double row_best = 0.0;
    for (size_t j = 0; j < b.size(); ++j) {
      double s;
      if (a[i] == b[j]) {
        s = 1.0;
      } else {
        uint64_t key = (uint64_t{a[i]} << 32) | b[j];
        size_t slot = MemoProbe(memo.keys, key);
        if (memo.keys[slot] == key) {
          s = memo.values[slot];
        } else {
          s = JaroWinklerSimilarity(x, interner.token(b[j]), scratch);
          MemoInsert(memo, key, s);
        }
      }
      row_best = std::max(row_best, s);
      col_best[j] = std::max(col_best[j], s);
    }
    total_a += row_best;
  }
  double total_b = 0.0;
  for (size_t j = 0; j < b.size(); ++j) total_b += col_best[j];
  return std::max(total_a / static_cast<double>(a.size()),
                  total_b / static_cast<double>(b.size()));
}

namespace {

/// Class index of one byte: 'a'-'z' -> 0..25, '0'-'9' -> 26..35, else 36.
size_t CharClass(char c) {
  unsigned char uc = static_cast<unsigned char>(c);
  if (uc >= 'a' && uc <= 'z') return static_cast<size_t>(uc - 'a');
  if (uc >= '0' && uc <= '9') return 26 + static_cast<size_t>(uc - '0');
  return 36;
}

/// Histograms saturate at 255; past that the multiset intersection could
/// undercount, so bounds fall back to the pure length bound.
constexpr uint32_t kMaxExactLength = 255;

/// Histogram intersection: sum over the classes present in both masks of
/// min(count_x, count_y). Classes absent from either side have a zero
/// count on that side, so this equals the all-classes min-sum — the mask
/// walk just skips known zeros.
size_t SharedCharSum(const TokenSignature& x, const TokenSignature& y) {
  uint64_t shared = x.class_mask & y.class_mask;
  size_t common = 0;
  while (shared != 0) {
    int c = std::countr_zero(shared);
    shared &= shared - 1;
    common += std::min(x.class_counts[static_cast<size_t>(c)],
                       y.class_counts[static_cast<size_t>(c)]);
  }
  return common;
}

/// Upper bound on the number of Jaro character matches between two
/// tokens: min of the lengths, tightened by the shared-character multiset
/// size when neither histogram saturated (Jaro matches pair equal
/// characters injectively, so no alignment can match more than the
/// multiset intersection).
size_t JaroMatchUpperBound(const TokenSignature& x, const TokenSignature& y) {
  size_t bound = std::min(x.length, y.length);
  if (x.length > kMaxExactLength || y.length > kMaxExactLength) return bound;
  return std::min(bound, SharedCharSum(x, y));
}

/// Compile-time table of IEEE quotients m / l for small m and l. The
/// signature bounds divide a match count by a token length in every cell
/// of the Monge-Elkan grid; for the word-sized operands that dominate, a
/// table load replaces the hardware divide. Entries are computed by the
/// same double division they replace (constant evaluation uses IEEE
/// round-to-nearest, like the runtime), so a lookup returns the identical
/// bits — this is a strength reduction, not an approximation.
struct QuotientTable {
  static constexpr size_t kMax = 48;
  double q[kMax][kMax] = {};
};

constexpr QuotientTable MakeQuotientTable() {
  QuotientTable table;
  for (size_t m = 0; m < QuotientTable::kMax; ++m) {
    for (size_t l = 1; l < QuotientTable::kMax; ++l) {
      table.q[m][l] = static_cast<double>(m) / static_cast<double>(l);
    }
  }
  return table;
}

constinit const QuotientTable kQuotients = MakeQuotientTable();

/// num / den as a double, via the table when both operands are small
/// (den must be nonzero). Bitwise equal to the plain division always.
inline double ExactQuotient(size_t num, size_t den) {
  if (num < QuotientTable::kMax && den < QuotientTable::kMax) {
    return kQuotients.q[num][den];
  }
  return static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

TokenSignature MakeTokenSignature(std::string_view token) {
  TokenSignature signature;
  signature.length = static_cast<uint32_t>(token.size());
  signature.first = token.empty() ? '\0' : token.front();
  for (char c : token) {
    size_t cls = CharClass(c);
    signature.class_mask |= uint64_t{1} << cls;
    if (signature.class_counts[cls] < 255) ++signature.class_counts[cls];
  }
  return signature;
}

double JaroWinklerUpperBound(const TokenSignature& x,
                             const TokenSignature& y) {
  // Mirror the real kernel's empty-string cases exactly.
  if (x.length == 0 && y.length == 0) return 1.0;
  if (x.length == 0 || y.length == 0) return 0.0;
  size_t m = JaroMatchUpperBound(x, y);
  // No shared characters: Jaro is 0 and the Winkler prefix is empty too.
  if (m == 0) return 0.0;
  // (m/|x| + m/|y| + (m-t)/m)/3 with t >= 0, at the largest possible m
  // (the expression is increasing in m since m <= |x| and m <= |y|).
  // ExactQuotient is the same IEEE division, table-accelerated.
  double jaro_ub =
      (ExactQuotient(m, x.length) + ExactQuotient(m, y.length) + 1.0) / 3.0;
  size_t prefix_ub =
      x.first == y.first
          ? std::min<size_t>({4, x.length, y.length})
          : 0;
  constexpr double kScaling = 0.1;
  return jaro_ub +
         static_cast<double>(prefix_ub) * kScaling * (1.0 - jaro_ub);
}

double SymmetricMongeElkanUpperBound(
    const std::vector<TokenSignature>& signatures,
    const std::vector<TokenId>& a, const std::vector<TokenId>& b,
    SimilarityScratch& scratch) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  // Same row/column-maxima fold as the real kernel, over per-cell upper
  // bounds. Cells are recomputed, not memoized like the real kernel's:
  // a bound cell is a few integer ops plus table lookups — cheaper than
  // a hash probe into a table too big to stay cache-resident (the bound
  // pass visits every candidate pair, so its distinct-token-pair space
  // is an order of magnitude larger than the survivors').
  double total_a = 0.0;
  std::vector<double>& col_best = scratch.col_best;
  col_best.assign(b.size(), 0.0);
  for (size_t i = 0; i < a.size(); ++i) {
    const TokenSignature& x = signatures[a[i]];
    double row_best = 0.0;
    for (size_t j = 0; j < b.size(); ++j) {
      double s =
          a[i] == b[j] ? 1.0 : JaroWinklerUpperBound(x, signatures[b[j]]);
      row_best = std::max(row_best, s);
      col_best[j] = std::max(col_best[j], s);
    }
    total_a += row_best;
  }
  double total_b = 0.0;
  for (size_t j = 0; j < b.size(); ++j) total_b += col_best[j];
  return std::max(total_a / static_cast<double>(a.size()),
                  total_b / static_cast<double>(b.size()));
}

double NumericSimilarity(std::string_view a, std::string_view b) {
  double va = 0.0, vb = 0.0;
  if (!ParseLeadingDouble(a, &va, nullptr) ||
      !ParseLeadingDouble(b, &vb, nullptr)) {
    return 0.0;
  }
  return NumericSimilarityValues(va, vb);
}

}  // namespace bdi::text
