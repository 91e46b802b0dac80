#include "bdi/serve/snapshot.h"

#include <algorithm>
#include <cstdio>

#include "bdi/common/executor.h"
#include "bdi/common/logging.h"
#include "bdi/common/metrics.h"
#include "bdi/common/string_util.h"
#include "bdi/text/similarity.h"
#include "bdi/text/tokenizer.h"

namespace bdi::serve {

namespace {

void AppendHexDouble(std::string* out, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  *out += buf;
}

/// How well a normalized attribute query matches a normalized attribute
/// name: Jaro-Winkler, raised to 0.9 when either contains the other.
double AttributeScore(const std::string& query, const std::string& name) {
  double score = text::JaroWinklerSimilarity(query, name);
  if (name.find(query) != std::string::npos ||
      query.find(name) != std::string::npos) {
    score = std::max(score, 0.9);
  }
  return score;
}

/// The entity's fused cell for mediated attribute `attr`, or null.
const ServedValue* CellOf(const ServedEntity& entity, int attr) {
  for (const ServedValue& cell : entity.values) {
    if (cell.attr == attr) return &cell;
  }
  return nullptr;
}

/// Asks resolve to no attribute scoring below this.
constexpr double kMinAttributeScore = 0.5;

/// The fallback over other clusters takes only near-exact or substring
/// name matches (AttributeScore's 0.9 substring level): looser
/// Jaro-Winkler matches answer from unrelated attributes.
constexpr double kMinFallbackAttributeScore = 0.9;

}  // namespace

std::shared_ptr<const Snapshot> Snapshot::Build(
    const core::IntegrationReport& report, const Dataset& dataset,
    size_t num_shards, uint64_t version, size_t num_threads) {
  if (num_shards == 0) num_shards = 1;
  auto snapshot = std::shared_ptr<Snapshot>(new Snapshot());
  snapshot->version_ = version;
  snapshot->attribute_names_ = report.schema.cluster_names;
  snapshot->attribute_members_.resize(report.schema.clusters.size());
  for (size_t c = 0; c < report.schema.clusters.size(); ++c) {
    std::vector<std::string>& names = snapshot->attribute_members_[c];
    names.push_back(report.schema.cluster_names[c]);
    for (const SourceAttr& member : report.schema.clusters[c]) {
      names.push_back(NormalizeAlnum(dataset.attr_name(member.attr)));
    }
    std::erase(names, std::string());
    std::sort(names.begin(), names.end());
    names.erase(std::unique(names.begin(), names.end()), names.end());
  }
  snapshot->num_records_ = dataset.num_records();

  const size_t clusters = report.linkage.clusters.num_clusters;
  // Representative text and record count per cluster: the longest
  // first-field value wins, the first seen on a tie.
  std::vector<std::string> cluster_text(clusters);
  std::vector<uint32_t> cluster_records(clusters, 0);
  for (const Record& record : dataset.records()) {
    EntityId cluster = report.linkage.clusters.label_of_record[record.idx];
    ++cluster_records[static_cast<size_t>(cluster)];
    if (record.fields.empty()) continue;
    const std::string& name = record.fields[0].value;
    if (name.size() > cluster_text[static_cast<size_t>(cluster)].size()) {
      cluster_text[static_cast<size_t>(cluster)] = name;
    }
  }
  // Fused cells grouped per cluster, in claim-db item order.
  std::vector<std::vector<ServedValue>> cluster_values(clusters);
  for (size_t i = 0; i < report.claims.items().size(); ++i) {
    const fusion::DataItem& item = report.claims.items()[i];
    ServedValue cell;
    cell.attr = item.attr;
    cell.value = report.fusion.chosen[i];
    cell.confidence = report.fusion.confidence[i];
    cell.support.reserve(item.claims.size());
    for (const fusion::Claim& claim : item.claims) {
      ServedClaim support;
      support.source = dataset.source(claim.source).name;
      support.value = claim.value;
      support.agrees = claim.value == cell.value;
      cell.support.push_back(std::move(support));
    }
    cluster_values[static_cast<size_t>(item.entity)].push_back(
        std::move(cell));
  }

  snapshot->num_entities_ = clusters;
  snapshot->shards_.resize(num_shards);
  // Shards build independently: each owns the clusters hashed to it.
  ParallelFor(
      num_shards,
      [&](size_t s) {
        Shard& shard = snapshot->shards_[s];
        for (size_t c = s; c < clusters; c += num_shards) {
          ServedEntity entity;
          entity.cluster = static_cast<EntityId>(c);
          entity.num_records = cluster_records[c];
          entity.text = cluster_text[c];
          entity.tokens = text::TokenSet(entity.text);
          entity.values = std::move(cluster_values[c]);
          std::sort(entity.values.begin(), entity.values.end(),
                    [](const ServedValue& a, const ServedValue& b) {
                      return a.attr < b.attr;
                    });
          uint32_t slot = static_cast<uint32_t>(shard.entities.size());
          for (const std::string& token : entity.tokens) {
            shard.postings[token].push_back(slot);
          }
          shard.entities.push_back(std::move(entity));
        }
      },
      num_threads == 0 ? 0 : num_threads);
  return snapshot;
}

std::vector<FindHit> Snapshot::Find(const std::string& keywords,
                                    size_t k) const {
  static metrics::Counter* probes =
      metrics::Registry::Get().RegisterCounter("bdi.serve.query.shard_probes");
  std::vector<std::string> query = text::TokenSet(keywords);
  std::vector<FindHit> scored;
  for (const Shard& shard : shards_) {
    probes->Add(1);
    // Candidate slots sharing >= 1 token with the query, deduplicated.
    std::vector<uint32_t> candidates;
    for (const std::string& token : query) {
      auto it = shard.postings.find(token);
      if (it == shard.postings.end()) continue;
      candidates.insert(candidates.end(), it->second.begin(),
                        it->second.end());
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    for (uint32_t slot : candidates) {
      const ServedEntity& entity = shard.entities[slot];
      double overlap = text::OverlapCoefficient(query, entity.tokens);
      double fuzzy = text::MongeElkanSimilarity(keywords, entity.text);
      double score = 0.7 * overlap + 0.3 * fuzzy;
      if (score > 0.0) {
        scored.push_back(FindHit{entity.cluster, score, entity.text});
      }
    }
  }
  std::sort(scored.begin(), scored.end(),
            [](const FindHit& a, const FindHit& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.cluster < b.cluster;
            });
  if (scored.size() > k) scored.resize(k);
  return scored;
}

AskAnswer Snapshot::Ask(const std::string& attribute_keywords,
                        const std::string& entity_keywords) const {
  AskAnswer answer;
  std::vector<FindHit> hits = Find(entity_keywords, 1);
  if (hits.empty()) return answer;
  // Build places cluster c at slot c / num_shards of shard c % num_shards.
  const size_t cluster = static_cast<size_t>(hits[0].cluster);
  const ServedEntity& entity =
      shards_[cluster % shards_.size()].entities[cluster / shards_.size()];
  BDI_CHECK(entity.cluster == hits[0].cluster);

  // Best mediated attribute: the first best-scoring cluster name.
  std::string normalized = NormalizeAlnum(attribute_keywords);
  int best_attr = -1;
  double best_score = 0.0;
  for (size_t c = 0; c < attribute_names_.size(); ++c) {
    if (attribute_names_[c].empty()) continue;
    double score = AttributeScore(normalized, attribute_names_[c]);
    if (score > best_score) {
      best_score = score;
      best_attr = static_cast<int>(c);
    }
  }
  const bool picked = best_score >= kMinAttributeScore;
  const ServedValue* cell = picked ? CellOf(entity, best_attr) : nullptr;
  if (cell == nullptr && !normalized.empty()) {
    // Alignment can split one attribute over several clusters, and the
    // entity's value may sit in one whose name does not match the query.
    // Try the others, best first by their name or any member
    // source-attribute name, ties by cluster index.
    std::vector<std::pair<double, int>> ranked;  // (-score, cluster)
    for (size_t c = 0; c < attribute_members_.size(); ++c) {
      if (picked && static_cast<int>(c) == best_attr) continue;
      double score = 0.0;
      for (const std::string& name : attribute_members_[c]) {
        score = std::max(score, AttributeScore(normalized, name));
      }
      if (score >= kMinFallbackAttributeScore) {
        ranked.emplace_back(-score, static_cast<int>(c));
      }
    }
    std::sort(ranked.begin(), ranked.end());
    for (const auto& [negated_score, c] : ranked) {
      cell = CellOf(entity, c);
      if (cell != nullptr) {
        best_attr = c;
        best_score = -negated_score;
        break;
      }
    }
  }
  if (best_score < kMinAttributeScore) return answer;

  answer.cluster = entity.cluster;
  answer.entity_match = hits[0].score;
  answer.entity_name = hits[0].text;
  answer.attribute = attribute_names_[static_cast<size_t>(best_attr)];
  answer.attribute_match = best_score;
  if (cell != nullptr) {
    answer.value = cell->value;
    answer.confidence = cell->confidence;
    answer.support = cell->support;
  }
  return answer;
}

std::string Snapshot::DebugString() const {
  std::string out;
  out += "snapshot shards=" + std::to_string(shards_.size()) +
         " entities=" + std::to_string(num_entities_) +
         " records=" + std::to_string(num_records_) + "\n";
  out += "attrs";
  for (const std::string& name : attribute_names_) {
    out += " ";
    out += name;
  }
  out += "\n";
  for (size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = shards_[s];
    out += "shard " + std::to_string(s) + "\n";
    for (const ServedEntity& entity : shard.entities) {
      out += " entity " + std::to_string(entity.cluster) +
             " records=" + std::to_string(entity.num_records) + " text=";
      out += entity.text;
      out += "\n";
      for (const ServedValue& cell : entity.values) {
        out += "  value attr=" + std::to_string(cell.attr) + " chosen=";
        out += cell.value;
        out += " conf=";
        AppendHexDouble(&out, cell.confidence);
        out += "\n";
        for (const ServedClaim& claim : cell.support) {
          out += "   claim ";
          out += claim.source;
          out += "=";
          out += claim.value;
          out += claim.agrees ? " agree" : " disagree";
          out += "\n";
        }
      }
    }
  }
  return out;
}

}  // namespace bdi::serve
