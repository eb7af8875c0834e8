#include "src/engine/plan_cache.h"

#include <utility>

namespace gqzoo {

namespace {

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

PlanCache::PlanCache(size_t capacity_per_shard, size_t num_shards)
    : capacity_per_shard_(capacity_per_shard == 0 ? 1 : capacity_per_shard),
      shards_(RoundUpPow2(num_shards == 0 ? 1 : num_shards)) {}

PlanPtr PlanCache::Get(const PlanCacheKey& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    ++shard.misses;
    return nullptr;
  }
  ++shard.hits;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->plan;
}

void PlanCache::Put(const PlanCacheKey& key, PlanPtr plan) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    it->second->plan = std::move(plan);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  if (shard.lru.size() >= capacity_per_shard_) {
    shard.map.erase(shard.lru.back().key);
    shard.lru.pop_back();
    ++shard.evictions;
  }
  shard.lru.push_front(Entry{key, std::move(plan)});
  shard.map[key] = shard.lru.begin();
}

void PlanCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.map.clear();
    shard.lru.clear();
  }
}

PlanCache::Stats PlanCache::GetStats() const {
  Stats stats;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    stats.hits += shard.hits;
    stats.misses += shard.misses;
    stats.evictions += shard.evictions;
    stats.entries += shard.lru.size();
  }
  return stats;
}

}  // namespace gqzoo
