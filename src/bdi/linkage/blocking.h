#ifndef BDI_LINKAGE_BLOCKING_H_
#define BDI_LINKAGE_BLOCKING_H_

#include <memory>
#include <string>
#include <vector>

#include "bdi/linkage/attr_roles.h"
#include "bdi/model/dataset.h"

namespace bdi::linkage {

/// A blocking key and the records sharing it.
struct Block {
  std::string key;
  std::vector<RecordIdx> records;
};

/// An unordered candidate record pair (a < b by construction).
struct CandidatePair {
  RecordIdx a = kInvalidRecord;
  RecordIdx b = kInvalidRecord;

  friend bool operator==(const CandidatePair& x, const CandidatePair& y) {
    return x.a == y.a && x.b == y.b;
  }
  friend bool operator<(const CandidatePair& x, const CandidatePair& y) {
    if (x.a != y.a) return x.a < y.a;
    return x.b < y.b;
  }
};

/// The two key families of token and identifier blocking, shared by
/// TokenBlocker, IdentifierBlocker and the Linker's resident index:
/// identifier keys are digit-bearing tokens of at least
/// kIdentifierKeyMinLen characters and name keys are word tokens of at
/// least kNameKeyMinLen characters. A key whose posting holds more than
/// its family's cap stops generating candidates (a stop-word guard).
inline constexpr size_t kIdentifierKeyMinLen = 5;
inline constexpr size_t kIdentifierMaxPosting = 100;
inline constexpr size_t kNameKeyMinLen = 3;
inline constexpr size_t kNameMaxPosting = 200;

/// The blocking keys of one record, sorted and unique. `role` picks the
/// text: the values of the record's `role` fields (kIdentifier or kName),
/// or all of its values when `roles` is null or the record has no field
/// of that role. kIdentifier keys are that text's IdentifierTokens of
/// length >= `min_len`; any other role keys on its word tokens of length
/// >= `min_len`.
std::vector<std::string> BlockingKeys(const Dataset& dataset, RecordIdx idx,
                                      const AttrRoles* roles, AttrRole role,
                                      size_t min_len);

/// Strategy interface: partitions (possibly overlappingly) the records into
/// blocks whose members are candidate matches.
class Blocker {
 public:
  virtual ~Blocker() = default;

  /// Blocks for the subset `records` of the dataset. `roles` may be null
  /// (schema-agnostic blockers then use all values).
  virtual std::vector<Block> MakeBlocks(
      const Dataset& dataset, const std::vector<RecordIdx>& records,
      const AttrRoles* roles) const = 0;

  virtual std::string name() const = 0;

  /// Convenience: blocks over the whole dataset.
  std::vector<Block> MakeBlocksAll(const Dataset& dataset,
                                   const AttrRoles* roles) const;

  /// Parallelism of the per-record tokenization phase: 0 = shared executor
  /// pool, 1 = serial. Blocks are identical either way (the index build is
  /// always serial in record order).
  void set_num_threads(size_t n) { num_threads_ = n; }
  size_t num_threads() const { return num_threads_; }

 protected:
  size_t num_threads_ = 0;
};

/// Token blocking: one block per word token of the record's name-like
/// fields (all fields when roles are unavailable). Oversized blocks
/// (stop-word tokens) are dropped.
class TokenBlocker : public Blocker {
 public:
  explicit TokenBlocker(size_t min_token_len = kNameKeyMinLen,
                        size_t max_block_size = kNameMaxPosting)
      : min_token_len_(min_token_len), max_block_size_(max_block_size) {}

  std::vector<Block> MakeBlocks(const Dataset& dataset,
                                const std::vector<RecordIdx>& records,
                                const AttrRoles* roles) const override;
  std::string name() const override { return "token"; }

 private:
  size_t min_token_len_;
  size_t max_block_size_;
};

/// Identifier blocking: blocks on identifier-like tokens (digit-bearing
/// alphanumerics) drawn from identifier-role fields, falling back to all
/// fields. The high-precision strategy the tutorial's product-id
/// opportunity enables.
class IdentifierBlocker : public Blocker {
 public:
  explicit IdentifierBlocker(size_t min_len = kIdentifierKeyMinLen,
                             size_t max_block_size = kIdentifierMaxPosting)
      : min_len_(min_len), max_block_size_(max_block_size) {}

  std::vector<Block> MakeBlocks(const Dataset& dataset,
                                const std::vector<RecordIdx>& records,
                                const AttrRoles* roles) const override;
  std::string name() const override { return "identifier"; }

 private:
  size_t min_len_;
  size_t max_block_size_;
};

/// Sorted neighborhood: records sorted by a normalized key (sorted name
/// tokens); every window of `window_size` consecutive records forms a
/// block.
class SortedNeighborhoodBlocker : public Blocker {
 public:
  explicit SortedNeighborhoodBlocker(size_t window_size = 8)
      : window_size_(window_size) {}

  std::vector<Block> MakeBlocks(const Dataset& dataset,
                                const std::vector<RecordIdx>& records,
                                const AttrRoles* roles) const override;
  std::string name() const override { return "sorted-neighborhood"; }

 private:
  size_t window_size_;
};

/// Canopy clustering with a cheap token-overlap distance: greedily picks
/// seed records and groups every record sharing >= `t_loose` fraction of
/// the seed's tokens into its canopy (overlapping allowed).
class CanopyBlocker : public Blocker {
 public:
  explicit CanopyBlocker(double t_loose = 0.4, size_t max_block_size = 400)
      : t_loose_(t_loose), max_block_size_(max_block_size) {}

  std::vector<Block> MakeBlocks(const Dataset& dataset,
                                const std::vector<RecordIdx>& records,
                                const AttrRoles* roles) const override;
  std::string name() const override { return "canopy"; }

 private:
  double t_loose_;
  size_t max_block_size_;
};

/// Expands blocks to deduplicated candidate pairs. Same-source pairs are
/// skipped unless `allow_same_source` (pages within one source are assumed
/// distinct entities — local homogeneity). `num_threads` bounds the chunk
/// expansion (0 = shared executor pool, 1 = serial). Dedup is sharded by
/// the pair's first record — each shard owns a contiguous `a`-range, is
/// sort+unique'd independently, and the shards concatenate into the
/// globally sorted result — so the output is identical for every thread
/// count with no global sort or single hot mutex.
std::vector<CandidatePair> BlocksToPairs(const Dataset& dataset,
                                         const std::vector<Block>& blocks,
                                         bool allow_same_source = false,
                                         size_t num_threads = 0);

/// One posting to expand: `size` records sharing a key, of which
/// `records[first_new..size)` are new since the posting was last expanded.
struct PostingSlice {
  const RecordIdx* records = nullptr;
  size_t size = 0;
  size_t first_new = 0;
};

/// Expands postings to deduplicated candidate pairs, sorted by (a, b):
/// every pair of a posting with at least one new member, with BlocksToPairs'
/// same-source rule, sharding and thread-count independence. BlocksToPairs
/// is this function over its blocks with `first_new == 0`.
std::vector<CandidatePair> PostingsToPairs(
    const Dataset& dataset, const std::vector<PostingSlice>& postings,
    bool allow_same_source = false, size_t num_threads = 0);

/// Blocking quality vs. ground-truth record->entity labels:
/// pairs completeness (recall of true pairs) and reduction ratio
/// (1 - candidates / comparable pairs).
struct BlockingQuality {
  double pairs_completeness = 0.0;
  double reduction_ratio = 0.0;
  size_t num_candidates = 0;
  size_t num_true_pairs = 0;
  size_t num_true_covered = 0;
};

BlockingQuality EvaluateBlocking(const Dataset& dataset,
                                 const std::vector<CandidatePair>& candidates,
                                 const std::vector<EntityId>& truth_labels,
                                 bool allow_same_source = false);

}  // namespace bdi::linkage

#endif  // BDI_LINKAGE_BLOCKING_H_
