#include "bdi/linkage/blocking.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <mutex>
#include <unordered_map>

#include "bdi/common/executor.h"
#include "bdi/common/metrics.h"
#include "bdi/common/string_util.h"
#include "bdi/text/interner.h"
#include "bdi/text/tokenizer.h"

namespace bdi::linkage {

namespace {

/// Concatenated values of the record's fields with the wanted role; all
/// fields when roles are missing or the record has none with that role.
std::string RoleText(const Dataset& dataset, RecordIdx idx,
                     const AttrRoles* roles, AttrRole wanted) {
  const Record& record = dataset.record(idx);
  std::string text;
  if (roles != nullptr) {
    for (const Field& field : record.fields) {
      if (roles->RoleOf(SourceAttr{record.source, field.attr}) == wanted) {
        text += field.value;
        text += ' ';
      }
    }
    if (!text.empty()) return text;
  }
  for (const Field& field : record.fields) {
    text += field.value;
    text += ' ';
  }
  return text;
}

}  // namespace

std::vector<std::string> BlockingKeys(const Dataset& dataset, RecordIdx idx,
                                      const AttrRoles* roles, AttrRole role,
                                      size_t min_len) {
  std::string text = RoleText(dataset, idx, roles, role);
  if (role == AttrRole::kIdentifier) {
    return text::IdentifierTokens(text, min_len);
  }
  std::vector<std::string> tokens = text::TokenSet(text);
  tokens.erase(std::remove_if(tokens.begin(), tokens.end(),
                              [min_len](const std::string& t) {
                                return t.size() < min_len;
                              }),
               tokens.end());
  return tokens;
}

std::vector<Block> Blocker::MakeBlocksAll(const Dataset& dataset,
                                          const AttrRoles* roles) const {
  std::vector<RecordIdx> all;
  all.reserve(dataset.num_records());
  for (const Record& r : dataset.records()) all.push_back(r.idx);
  return MakeBlocks(dataset, all, roles);
}

namespace {

/// Parallel token emission + serial index building: the expensive part of
/// token-family blocking is per-record text assembly and tokenization,
/// which is embarrassingly parallel; the inverted index is then filled
/// serially in record order, so posting lists are identical to a fully
/// serial run. The index routes through a TokenInterner — u32 ids into a
/// dense postings table instead of string-keyed hash buckets, so the
/// per-token cost after the first sighting is one hash of the string and
/// an indexed push_back.
std::vector<Block> TokenIndexBlocks(
    const std::vector<RecordIdx>& records, size_t max_block_size,
    size_t num_threads,
    const std::function<std::vector<std::string>(RecordIdx)>& tokenize) {
  std::vector<std::vector<std::string>> tokens(records.size());
  ParallelFor(
      records.size(), [&](size_t i) { tokens[i] = tokenize(records[i]); },
      num_threads);
  text::TokenInterner interner;
  std::vector<std::vector<RecordIdx>> postings;
  for (size_t i = 0; i < records.size(); ++i) {
    for (const std::string& token : tokens[i]) {
      text::TokenId id = interner.Intern(token);
      if (id == postings.size()) postings.emplace_back();
      postings[id].push_back(records[i]);
    }
  }
  std::vector<Block> blocks;
  blocks.reserve(postings.size());
  for (text::TokenId id = 0; id < postings.size(); ++id) {
    std::vector<RecordIdx>& members = postings[id];
    if (members.size() < 2 || members.size() > max_block_size) continue;
    blocks.push_back(Block{interner.token(id), std::move(members)});
  }
  std::sort(blocks.begin(), blocks.end(),
            [](const Block& a, const Block& b) { return a.key < b.key; });
  return blocks;
}

}  // namespace

std::vector<Block> TokenBlocker::MakeBlocks(
    const Dataset& dataset, const std::vector<RecordIdx>& records,
    const AttrRoles* roles) const {
  return TokenIndexBlocks(
      records, max_block_size_, num_threads_, [&](RecordIdx idx) {
        return BlockingKeys(dataset, idx, roles, AttrRole::kName,
                            min_token_len_);
      });
}

std::vector<Block> IdentifierBlocker::MakeBlocks(
    const Dataset& dataset, const std::vector<RecordIdx>& records,
    const AttrRoles* roles) const {
  return TokenIndexBlocks(
      records, max_block_size_, num_threads_, [&](RecordIdx idx) {
        return BlockingKeys(dataset, idx, roles, AttrRole::kIdentifier,
                            min_len_);
      });
}

std::vector<Block> SortedNeighborhoodBlocker::MakeBlocks(
    const Dataset& dataset, const std::vector<RecordIdx>& records,
    const AttrRoles* roles) const {
  std::vector<std::pair<std::string, RecordIdx>> keyed(records.size());
  ParallelFor(
      records.size(),
      [&](size_t i) {
        std::string text =
            RoleText(dataset, records[i], roles, AttrRole::kName);
        std::vector<std::string> tokens = text::TokenSet(text);
        keyed[i] = {Join(tokens, " "), records[i]};
      },
      num_threads_);
  std::sort(keyed.begin(), keyed.end());
  std::vector<Block> blocks;
  if (keyed.size() < 2) return blocks;
  size_t window = std::max<size_t>(2, window_size_);
  // Slide the window one position at a time and pair only the newly
  // entering record with the records already in the window: every
  // within-window pair {p, q} (|q - p| < window) is emitted exactly once
  // (at step i = q), where whole-window blocks would re-emit it at every
  // window covering both — up to window-1 copies for the downstream dedup
  // to discard.
  for (size_t i = 1; i < keyed.size(); ++i) {
    size_t start = i >= window - 1 ? i - (window - 1) : 0;
    for (size_t j = start; j < i; ++j) {
      Block block;
      block.key = "w";
      block.key += std::to_string(j);
      block.key += '_';
      block.key += std::to_string(i);
      block.records = {keyed[j].second, keyed[i].second};
      blocks.push_back(std::move(block));
    }
  }
  return blocks;
}

std::vector<Block> CanopyBlocker::MakeBlocks(
    const Dataset& dataset, const std::vector<RecordIdx>& records,
    const AttrRoles* roles) const {
  // Token sets (parallel) + interned inverted index (serial, record
  // order): u32 token ids key a dense postings table of positions in
  // `records`.
  std::vector<std::vector<std::string>> tokens(records.size());
  ParallelFor(
      records.size(),
      [&](size_t i) {
        tokens[i] = text::TokenSet(
            RoleText(dataset, records[i], roles, AttrRole::kName));
      },
      num_threads_);
  text::TokenInterner interner;
  std::vector<std::vector<text::TokenId>> token_ids(records.size());
  std::vector<std::vector<size_t>> postings;
  for (size_t i = 0; i < records.size(); ++i) {
    token_ids[i].reserve(tokens[i].size());
    for (const std::string& t : tokens[i]) {
      text::TokenId id = interner.Intern(t);
      if (id == postings.size()) postings.emplace_back();
      postings[id].push_back(i);
      token_ids[i].push_back(id);
    }
  }
  std::vector<bool> covered(records.size(), false);
  // Dense overlap counters, reset via the touched list after every seed —
  // no per-seed hash map. A count never exceeds the seed's token-set size,
  // which u32 token ids bound.
  std::vector<uint32_t> overlap(records.size(), 0);
  std::vector<size_t> touched;
  std::vector<Block> blocks;
  for (size_t seed = 0; seed < records.size(); ++seed) {
    if (covered[seed] || token_ids[seed].empty()) continue;
    // Count shared tokens with records appearing in the seed's postings.
    touched.clear();
    for (text::TokenId id : token_ids[seed]) {
      for (size_t j : postings[id]) {
        if (overlap[j]++ == 0) touched.push_back(j);
      }
    }
    // Deterministic canopy membership: visit candidates in ascending
    // position order. Hash-order traversal made block contents — and,
    // through the max_block_size_ truncation, even block *membership* —
    // depend on the map implementation's iteration order.
    std::sort(touched.begin(), touched.end());
    Block block;
    block.key = "canopy" + std::to_string(seed);
    for (size_t j : touched) {
      double fraction = static_cast<double>(overlap[j]) /
                        static_cast<double>(token_ids[seed].size());
      if (fraction >= t_loose_) {
        block.records.push_back(records[j]);
        covered[j] = true;
      }
      if (block.records.size() >= max_block_size_) break;
    }
    for (size_t j : touched) overlap[j] = 0;
    if (block.records.size() >= 2) {
      std::sort(block.records.begin(), block.records.end());
      blocks.push_back(std::move(block));
    }
  }
  return blocks;
}

std::vector<CandidatePair> BlocksToPairs(const Dataset& dataset,
                                         const std::vector<Block>& blocks,
                                         bool allow_same_source,
                                         size_t num_threads) {
  std::vector<PostingSlice> postings;
  postings.reserve(blocks.size());
  for (const Block& block : blocks) {
    postings.push_back(
        PostingSlice{block.records.data(), block.records.size(), 0});
  }
  return PostingsToPairs(dataset, postings, allow_same_source, num_threads);
}

std::vector<CandidatePair> PostingsToPairs(
    const Dataset& dataset, const std::vector<PostingSlice>& postings,
    bool allow_same_source, size_t num_threads) {
  // Pair expansion shards the dedup by first record instead of funneling
  // every chunk's output through one mutex-guarded vector and a global
  // sort. Shards own contiguous ranges of `a`, so after the per-shard
  // sort + unique, concatenating shards in index order IS the globally
  // sorted, deduped result — identical for every thread count (the
  // per-shard sort canonicalizes whatever arrival order the chunk
  // scheduling produced).
  const size_t num_records = dataset.num_records();
  if (postings.empty() || num_records == 0) return {};
  const size_t num_shards =
      num_threads == 1
          ? 1
          : std::min<size_t>(
                64, std::max<size_t>(1, (num_threads == 0
                                             ? Executor::Get().num_threads()
                                             : num_threads) *
                                            4));
  auto shard_of = [&](RecordIdx a) {
    return static_cast<size_t>(a) * num_shards / num_records;
  };
  std::vector<std::vector<CandidatePair>> shards(num_shards);
  std::vector<std::mutex> shard_mu(num_shards);
  auto expand = [&](size_t begin, size_t end) {
    std::vector<std::vector<CandidatePair>> local(num_shards);
    for (size_t p = begin; p < end; ++p) {
      const PostingSlice& posting = postings[p];
      for (size_t j = std::max<size_t>(posting.first_new, 1);
           j < posting.size; ++j) {
        for (size_t i = 0; i < j; ++i) {
          RecordIdx a = posting.records[i], b = posting.records[j];
          if (a == b) continue;
          if (!allow_same_source &&
              dataset.record(a).source == dataset.record(b).source) {
            continue;
          }
          if (a > b) std::swap(a, b);
          local[shard_of(a)].push_back(CandidatePair{a, b});
        }
      }
    }
    for (size_t s = 0; s < num_shards; ++s) {
      if (local[s].empty()) continue;
      std::lock_guard<std::mutex> lock(shard_mu[s]);
      shards[s].insert(shards[s].end(), local[s].begin(), local[s].end());
    }
  };
  ParallelForRanges(postings.size(), expand, num_threads);
  std::vector<size_t> pre_dedup_sizes(num_shards);
  ParallelFor(
      num_shards,
      [&](size_t s) {
        pre_dedup_sizes[s] = shards[s].size();
        std::sort(shards[s].begin(), shards[s].end());
        shards[s].erase(std::unique(shards[s].begin(), shards[s].end()),
                        shards[s].end());
      },
      num_threads);
  size_t generated = 0, total = 0;
  for (size_t s = 0; s < num_shards; ++s) {
    generated += pre_dedup_sizes[s];
    total += shards[s].size();
  }
  std::vector<CandidatePair> pairs;
  pairs.reserve(total);
  for (size_t s = 0; s < num_shards; ++s) {
    pairs.insert(pairs.end(), shards[s].begin(), shards[s].end());
  }
  if (metrics::Enabled()) {
    static metrics::Counter* generated_counter =
        metrics::Registry::Get().RegisterCounter(
            "bdi.linkage.blocking.pairs.generated");
    static metrics::Counter* pruned_counter =
        metrics::Registry::Get().RegisterCounter(
            "bdi.linkage.blocking.pairs.pruned");
    generated_counter->Add(generated);
    pruned_counter->Add(generated - pairs.size());
  }
  return pairs;
}

BlockingQuality EvaluateBlocking(const Dataset& dataset,
                                 const std::vector<CandidatePair>& candidates,
                                 const std::vector<EntityId>& truth_labels,
                                 bool allow_same_source) {
  BlockingQuality quality;
  quality.num_candidates = candidates.size();

  // True comparable pairs per entity: all pairs minus same-source pairs
  // (unless those are allowed).
  std::unordered_map<EntityId, std::vector<RecordIdx>> by_entity;
  for (size_t i = 0; i < truth_labels.size(); ++i) {
    by_entity[truth_labels[i]].push_back(static_cast<RecordIdx>(i));
  }
  auto comparable_pairs = [&](const std::vector<RecordIdx>& members) {
    size_t n = members.size();
    size_t total = n * (n - 1) / 2;
    if (allow_same_source) return total;
    std::unordered_map<SourceId, size_t> per_source;
    for (RecordIdx r : members) ++per_source[dataset.record(r).source];
    for (const auto& [src, k] : per_source) total -= k * (k - 1) / 2;
    return total;
  };
  for (const auto& [entity, members] : by_entity) {
    quality.num_true_pairs += comparable_pairs(members);
  }

  for (const CandidatePair& pair : candidates) {
    if (truth_labels[pair.a] == truth_labels[pair.b]) {
      ++quality.num_true_covered;
    }
  }
  quality.pairs_completeness =
      quality.num_true_pairs == 0
          ? 1.0
          : static_cast<double>(quality.num_true_covered) /
                static_cast<double>(quality.num_true_pairs);

  // All comparable pairs in the corpus.
  size_t n = dataset.num_records();
  size_t total = n * (n - 1) / 2;
  if (!allow_same_source) {
    for (const SourceInfo& source : dataset.sources()) {
      size_t k = source.records.size();
      total -= k * (k - 1) / 2;
    }
  }
  quality.reduction_ratio =
      total == 0 ? 0.0
                 : 1.0 - static_cast<double>(quality.num_candidates) /
                             static_cast<double>(total);
  return quality;
}

}  // namespace bdi::linkage
