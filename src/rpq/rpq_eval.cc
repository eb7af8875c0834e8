#include "src/rpq/rpq_eval.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>

#include "src/util/failpoint.h"

namespace gqzoo {

namespace {

// Lazy BFS over the (virtual) product graph from (u, q0). Each NFA
// transition expands over exactly its label slice (backwards when the
// transition is inverse). Calls `visit` for every graph node v such that
// some (v, q) with accepting q is reached; returns early if `visit`
// returns false.
//
// Product-state ids are packed in 64 bits: `NumNodes() * num_states` can
// exceed 2^32 on exactly the families the paper's complexity claims use
// (large cliques, wide NFAs), and a 32-bit pack silently aliases distinct
// product states into one `seen` slot — wrong answers, not a crash.
template <typename Visit>
void ProductBfsFrom(const GraphSnapshot& s, const Nfa& nfa, NodeId u,
                    const CancellationToken* cancel, Visit visit) {
  const uint32_t num_states = nfa.num_states();
  const size_t num_nodes = s.NumNodes();
  const uint64_t product_states =
      static_cast<uint64_t>(num_nodes) * num_states;
  if (cancel != nullptr && Failpoint::ShouldFail("rpq.product.bfs")) {
    cancel->Trip(StopCause::kMemoryBudget);
  }
  // Account the product-automaton working set up front: the seen bitmap
  // plus the worst-case BFS queue (one 8-byte id per product state).
  ScopedMemoryCharge working_set(cancel);
  if (!working_set.Charge(product_states / 8 + product_states * 8 +
                          num_nodes / 8)) {
    return;
  }
  std::vector<bool> seen(product_states, false);
  std::vector<bool> reported(num_nodes, false);
  std::deque<uint64_t> queue;
  auto push_state = [&](NodeId v, uint32_t q) {
    uint64_t id = static_cast<uint64_t>(v) * num_states + q;
    if (!seen[id]) {
      seen[id] = true;
      queue.push_back(id);
    }
  };
  push_state(u, nfa.initial());
  while (!queue.empty()) {
    if (ShouldStop(cancel)) return;
    uint64_t id = queue.front();
    queue.pop_front();
    NodeId v = static_cast<NodeId>(id / num_states);
    uint32_t q = static_cast<uint32_t>(id % num_states);
    if (nfa.accepting(q) && !reported[v]) {
      reported[v] = true;
      if (!visit(v)) return;
    }
    for (const Nfa::Transition& t : nfa.Out(q)) {
      s.ForEachMatch(v, t.pred, t.inverse, [&](const GraphSnapshot::Hop& hop) {
        push_state(hop.node, t.to);
      });
    }
  }
}

// Shared body of the full-relation evaluators: one BFS per source node in
// [lo, hi), pairs appended to `*result`. Returns false if the context
// tripped (the caller skips its final sort — partial results are
// discarded by the engine, and unwinding promptly is the contract).
bool EvalRpqRange(const GraphSnapshot& s, const Nfa& nfa, NodeId lo,
                  NodeId hi, const CancellationToken* cancel,
                  std::vector<std::pair<NodeId, NodeId>>* result) {
  for (NodeId u = lo; u < hi; ++u) {
    if (ShouldStop(cancel)) return false;
    ProductBfsFrom(s, nfa, u, cancel, [&](NodeId v) {
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
  ProductBfsFrom(s, nfa, u, cancel, [&](NodeId v) {
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
  ProductBfsFrom(s, nfa, u, cancel, [&](NodeId reached) {
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
