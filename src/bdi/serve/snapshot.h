#ifndef BDI_SERVE_SNAPSHOT_H_
#define BDI_SERVE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bdi/core/integrator.h"
#include "bdi/model/dataset.h"

namespace bdi::serve {

/// One supporting claim behind a fused value (provenance in responses).
struct ServedClaim {
  /// Claiming source's name.
  std::string source;
  /// The (normalized) value that source asserted.
  std::string value;
  /// Whether the claim agrees with the fused value.
  bool agrees = false;
};

/// One fused attribute cell of a served entity.
struct ServedValue {
  /// Mediated-schema cluster index of the attribute.
  int attr = -1;
  /// The fused (chosen) value.
  std::string value;
  /// Fusion confidence of the chosen value.
  double confidence = 0.0;
  /// All claims behind the cell, in claim order.
  std::vector<ServedClaim> support;
};

/// One entity cluster materialized as warm serving state.
struct ServedEntity {
  /// Linkage cluster id (stable within one snapshot).
  EntityId cluster = kInvalidEntity;
  /// Records linked into the cluster.
  uint32_t num_records = 0;
  /// Representative display text (longest record name seen).
  std::string text;
  /// TokenSet of `text` — the index terms of the entity.
  std::vector<std::string> tokens;
  /// Fused cells, sorted by `attr` ascending.
  std::vector<ServedValue> values;
};

/// One find hit: the entity and its match score.
struct FindHit {
  /// Cluster id of the hit.
  EntityId cluster = kInvalidEntity;
  /// Match score in (0, 1].
  double score = 0.0;
  /// Representative display text of the hit.
  std::string text;
};

/// A resolved ask answer (self-contained: no report/dataset needed to
/// serialize it).
struct AskAnswer {
  /// Best-matching entity cluster, or kInvalidEntity when nothing matched.
  EntityId cluster = kInvalidEntity;
  /// Representative text of that entity.
  std::string entity_name;
  /// Resolved mediated attribute name.
  std::string attribute;
  /// Fused value; empty when no answer exists.
  std::string value;
  /// Fusion confidence of `value`.
  double confidence = 0.0;
  /// How well the entity matched the query.
  double entity_match = 0.0;
  /// How well the attribute matched the query.
  double attribute_match = 0.0;
  /// Provenance of `value`.
  std::vector<ServedClaim> support;

  /// True when a fused value was resolved.
  bool found() const { return !value.empty(); }
};

/// An immutable, sharded view of one integration result, built once and
/// then served concurrently: entities are hashed to shards by cluster id,
/// each shard carries a token -> entity posting index, and all query
/// methods are const and thread-safe. Store publication swaps whole
/// snapshots (RCU-style), so a reader holding a shared_ptr sees one
/// consistent version for the lifetime of its request.
///
/// Query semantics (docs/SERVING.md): only entities sharing at least one
/// token with the query are find candidates (posting lookups). Each is
/// scored 0.7 * overlap-coefficient + 0.3 * Monge-Elkan, ties broken by
/// ascending cluster id, so answers do not depend on the shard count.
class Snapshot {
 public:
  /// Materializes a snapshot from a finished pipeline run. `version` tags
  /// the snapshot for response correlation; `num_threads` bounds build
  /// parallelism (shards build independently). `report` and `dataset` are
  /// only read during Build — the snapshot owns all its state.
  static std::shared_ptr<const Snapshot> Build(
      const core::IntegrationReport& report, const Dataset& dataset,
      size_t num_shards, uint64_t version, size_t num_threads);

  /// Top-k entities matching the keywords, best first (score desc, then
  /// cluster asc). Entities sharing no token with the query are not
  /// candidates.
  std::vector<FindHit> Find(const std::string& keywords, size_t k) const;

  /// Answers "<attribute> of <entity>": best find hit, best mediated
  /// attribute by cluster name (Jaro-Winkler + containment, rejected
  /// below 0.5), fused value with provenance. When the entity has no
  /// value for that attribute, the other attributes are tried, ranked by
  /// the same score over their name and member source-attribute names.
  AskAnswer Ask(const std::string& attribute_keywords,
                const std::string& entity_keywords) const;

  /// Monotone snapshot version assigned by the store.
  uint64_t version() const { return version_; }
  /// Number of shards entities are hashed over.
  size_t num_shards() const { return shards_.size(); }
  /// Total served entities across shards.
  size_t num_entities() const { return num_entities_; }
  /// Total records behind those entities.
  size_t num_records() const { return num_records_; }

  /// Deterministic full-state dump used by the equivalence tests: shards,
  /// entities, values and support in index order, doubles printed as %a
  /// hex so bitwise equality is textual equality. The snapshot version is
  /// deliberately excluded — two stores that converged to the same state
  /// through different batch partitions compare equal.
  std::string DebugString() const;

 private:
  /// One shard: its entities (cluster ascending) plus the token postings
  /// over their index terms (slot indexes into `entities`).
  struct Shard {
    std::vector<ServedEntity> entities;
    std::unordered_map<std::string, std::vector<uint32_t>> postings;
  };

  Snapshot() = default;

  uint64_t version_ = 0;
  size_t num_entities_ = 0;
  size_t num_records_ = 0;
  /// Mediated-schema attribute cluster names, indexed by cluster.
  std::vector<std::string> attribute_names_;
  /// Per cluster: its name and its member source-attribute names,
  /// normalized (NormalizeAlnum), sorted, deduplicated, none empty.
  std::vector<std::vector<std::string>> attribute_members_;
  std::vector<Shard> shards_;
};

}  // namespace bdi::serve

#endif  // BDI_SERVE_SNAPSHOT_H_
