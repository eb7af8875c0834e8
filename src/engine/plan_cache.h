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

/// Cache key: (language, query text, graph epoch). A graph mutation bumps
/// the engine's epoch, so plans compiled against an older graph can never
/// be returned again — stale entries simply age out of the LRU lists.
struct PlanCacheKey {
  QueryLanguage language;
  std::string text;  // query text, verbatim
  uint64_t graph_epoch;

  bool operator==(const PlanCacheKey& o) const {
    return language == o.language && graph_epoch == o.graph_epoch &&
           text == o.text;
  }

  size_t Hash() const {
    size_t h = std::hash<std::string>()(text);
    h = HashCombine(h, static_cast<size_t>(language));
    return HashCombine(h, static_cast<size_t>(graph_epoch));
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

  /// Label-scoped invalidation for the mutation path: drops exactly the
  /// entries whose `Plan::deps` name a touched label or property. Plans
  /// with empty deps (eval-time name resolution, pure-wildcard regexes)
  /// survive. Returns the number of entries dropped.
  size_t InvalidateDeps(const std::vector<std::string>& labels,
                        const std::vector<std::string>& properties);

  /// Eager eviction on base publish: drops every entry whose key was minted
  /// under an epoch other than `current_epoch`. Such entries can never be
  /// returned again (the epoch is part of the key) — evicting them on
  /// `SetGraph` frees their memory now instead of waiting for LRU aging.
  /// Returns the number of entries dropped.
  size_t EvictOtherEpochs(uint64_t current_epoch);

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
