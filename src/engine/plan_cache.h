#ifndef GQZOO_ENGINE_PLAN_CACHE_H_
#define GQZOO_ENGINE_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/engine/plan.h"

namespace gqzoo {

/// Cache key: (language, query text, graph epoch, vocabulary size). A plan
/// bakes in nothing of the graph but interned label and property ids (node
/// constants resolve at evaluation, and the join order it carries is
/// answer-neutral). Within one epoch the label and property interners only
/// append — writes and compaction keep every id — so the two counts name
/// exactly the ids a plan can have resolved: a write that interns a new
/// name changes the key, and any other write leaves cached plans correct.
/// The rule is the same for every language, so plans that bake in no ids
/// (CoreGQL without a wcoj group, group, regular) also miss once the
/// vocabulary grows. `SetGraph` bumps the epoch in the same critical
/// section that publishes the new graph, so no request pins a graph under
/// another graph's epoch: two epochs can share both counts but number
/// their names differently. A key minted under an older epoch or a smaller
/// vocabulary matches only requests still pinned to such a view, for which
/// its plan is correct; once none is in flight its entry ages out of the
/// LRU lists.
struct PlanCacheKey {
  QueryLanguage language;
  std::string text;  // query text, verbatim
  uint64_t graph_epoch;
  size_t num_labels;      // NumLabels() of the graph the request pinned
  size_t num_properties;  // NumProperties() of the same graph

  bool operator==(const PlanCacheKey& o) const {
    return language == o.language && graph_epoch == o.graph_epoch &&
           num_labels == o.num_labels &&
           num_properties == o.num_properties && text == o.text;
  }

  size_t Hash() const {
    size_t h = std::hash<std::string>()(text);
    h = HashCombine(h, static_cast<size_t>(language));
    h = HashCombine(h, static_cast<size_t>(graph_epoch));
    h = HashCombine(h, num_labels);
    return HashCombine(h, num_properties);
  }
};

/// A sharded LRU cache of compiled plans, safe for concurrent use: the key
/// hash picks a shard, each shard has its own mutex, LRU list, and map, so
/// threads executing different queries rarely contend.
class PlanCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    size_t entries = 0;
  };

  /// `capacity_per_shard` * `num_shards` is the total plan capacity.
  /// `num_shards` is rounded up to a power of two.
  explicit PlanCache(size_t capacity_per_shard = 64, size_t num_shards = 8);

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Returns the cached plan and refreshes its LRU position, or nullptr on
  /// miss. Counts a hit/miss either way.
  PlanPtr Get(const PlanCacheKey& key);

  /// Inserts (or replaces) a plan, evicting the least-recently-used entry
  /// of the shard when it is full.
  void Put(const PlanCacheKey& key, PlanPtr plan);

  /// Drops every entry (used by benchmarks to measure cold-cache cost).
  void Clear();

  /// Aggregated over all shards.
  Stats GetStats() const;

  size_t num_shards() const { return shards_.size(); }
  size_t capacity_per_shard() const { return capacity_per_shard_; }

 private:
  struct Entry {
    PlanCacheKey key;
    PlanPtr plan;
  };

  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  // front = most recently used
    struct KeyHash {
      size_t operator()(const PlanCacheKey& k) const { return k.Hash(); }
    };
    std::unordered_map<PlanCacheKey, std::list<Entry>::iterator, KeyHash> map;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
  };

  Shard& ShardFor(const PlanCacheKey& key) {
    return shards_[key.Hash() & (shards_.size() - 1)];
  }

  size_t capacity_per_shard_;
  std::vector<Shard> shards_;  // size is a power of two
};

}  // namespace gqzoo

#endif  // GQZOO_ENGINE_PLAN_CACHE_H_
