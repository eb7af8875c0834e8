#include "src/rpq/rpq_eval.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>

#include "src/automata/product_search.h"

namespace gqzoo {

namespace {

// Shared body of the full-relation evaluators: one BFS per source node in
// [lo, hi), pairs appended to `*result`. Returns false if the context
// tripped (the caller skips its final sort — partial results are
// discarded by the engine, and unwinding promptly is the contract).
bool EvalRpqRange(const GraphSnapshot& s, const Nfa& nfa, NodeId lo,
                  NodeId hi, const CancellationToken* cancel,
                  std::vector<std::pair<NodeId, NodeId>>* result) {
  PlainStep step(s, nfa);
  for (NodeId u = lo; u < hi; ++u) {
    if (ShouldStop(cancel)) return false;
    ForEachReached(step, u, cancel, [&](NodeId v) {
      if (!ChargeRows(cancel) ||
          !ChargeMemory(cancel, sizeof(std::pair<NodeId, NodeId>))) {
        return false;
      }
      result->emplace_back(u, v);
      return true;
    });
  }
  return !HasStopped(cancel);
}

// Shared state of one parallel evaluation. Owned by shared_ptr so a helper
// task that starts only after the caller has already drained every shard
// (and returned) still has somewhere safe to look, find no work, and exit —
// such a stale helper reads only `next` and never touches the borrowed
// snapshot/NFA references.
struct ParallelRpqState {
  const GraphSnapshot* s;
  const Nfa* nfa;
  const QueryContext* parent;
  size_t num_shards;
  size_t shard_size;
  std::vector<std::vector<std::pair<NodeId, NodeId>>> results;

  std::atomic<size_t> next{0};   // next unclaimed shard index
  std::mutex mu;
  std::condition_variable done_cv;
  size_t done = 0;               // shards fully evaluated (guarded by mu)

  // Claims and runs shards until none remain. Both the caller and every
  // pool helper execute this; the atomic `next` hands each shard to
  // exactly one worker, which gives dynamic load balancing for free.
  void Work() {
    for (;;) {
      size_t shard = next.fetch_add(1, std::memory_order_relaxed);
      if (shard >= num_shards) return;
      RunShard(shard);
      std::lock_guard<std::mutex> lock(mu);
      if (++done == num_shards) done_cv.notify_all();
    }
  }

  void RunShard(size_t shard) {
    NodeId lo = static_cast<NodeId>(shard * shard_size);
    NodeId hi = static_cast<NodeId>(
        std::min<size_t>((shard + 1) * shard_size, s->NumNodes()));
    if (parent == nullptr) {
      EvalRpqRange(*s, *nfa, lo, hi, nullptr, &results[shard]);
      return;
    }
    // Fork: the shard runs against a private copy of the parent context
    // (same deadline and budgets, counters core-local); the parent absorbs
    // the consumption delta and any stop cause on merge, first cause wins.
    QueryContext shard_ctx(*parent);
    BudgetReport base = shard_ctx.Report();
    EvalRpqRange(*s, *nfa, lo, hi, &shard_ctx, &results[shard]);
    parent->MergeShard(shard_ctx, base);
  }

  void AwaitAll() {
    std::unique_lock<std::mutex> lock(mu);
    done_cv.wait(lock, [this] { return done == num_shards; });
  }
};

// Below this many nodes the sharding overhead dominates and governed
// budget trips lose single-threaded determinism; run sequentially.
constexpr size_t kMinParallelNodes = 128;

}  // namespace

std::vector<std::pair<NodeId, NodeId>> EvalRpq(const GraphSnapshot& s,
                                               const Nfa& nfa,
                                               const CancellationToken* cancel) {
  std::vector<std::pair<NodeId, NodeId>> result;
  if (EvalRpqRange(s, nfa, 0, static_cast<NodeId>(s.NumNodes()), cancel,
                   &result)) {
    std::sort(result.begin(), result.end());
  }
  return result;
}

std::vector<NodeId> EvalRpqFrom(const GraphSnapshot& s, const Nfa& nfa,
                                NodeId u, const CancellationToken* cancel) {
  std::vector<NodeId> result;
  PlainStep step(s, nfa);
  ForEachReached(step, u, cancel, [&](NodeId v) {
    if (!ChargeMemory(cancel, sizeof(NodeId))) return false;
    result.push_back(v);
    return true;
  });
  if (!HasStopped(cancel)) std::sort(result.begin(), result.end());
  return result;
}

bool EvalRpqPair(const GraphSnapshot& s, const Nfa& nfa, NodeId u, NodeId v,
                 const CancellationToken* cancel) {
  bool found = false;
  PlainStep step(s, nfa);
  ForEachReached(step, u, cancel, [&](NodeId reached) {
    if (reached == v) {
      found = true;
      return false;
    }
    return true;
  });
  return found;
}

std::vector<std::pair<NodeId, NodeId>> EvalRpqParallel(
    const GraphSnapshot& s, const Nfa& nfa, const ParallelRpqOptions& options) {
  const size_t n = s.NumNodes();
  size_t helpers = options.pool != nullptr ? options.pool->num_threads() : 0;
  size_t shards = options.num_shards != 0 ? options.num_shards
                                          : 4 * (helpers + 1);
  if (n > 0) shards = std::min(shards, n);
  if (helpers == 0 || shards <= 1 || n < kMinParallelNodes) {
    return EvalRpq(s, nfa, options.cancel);
  }

  auto state = std::make_shared<ParallelRpqState>();
  state->s = &s;
  state->nfa = &nfa;
  state->parent = options.cancel;
  state->num_shards = shards;
  state->shard_size = (n + shards - 1) / shards;
  state->results.resize(shards);

  // Work-sharing, not work-handoff: helpers are best-effort (a full or
  // shut-down pool just means the caller does more shards itself), so
  // this cannot deadlock even when called from inside a pool task.
  for (size_t i = 0; i < std::min(helpers, shards - 1); ++i) {
    if (!options.pool->Submit([state] { state->Work(); })) break;
  }
  state->Work();
  state->AwaitAll();

  size_t total = 0;
  for (const auto& shard : state->results) total += shard.size();
  std::vector<std::pair<NodeId, NodeId>> result;
  result.reserve(total);
  for (const auto& shard : state->results) {
    result.insert(result.end(), shard.begin(), shard.end());
  }
  // Same contract as the sequential path: a tripped partial result is
  // returned unsorted.
  if (!HasStopped(options.cancel)) std::sort(result.begin(), result.end());
  return result;
}

}  // namespace gqzoo
