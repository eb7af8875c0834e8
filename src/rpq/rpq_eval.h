#ifndef GQZOO_RPQ_RPQ_EVAL_H_
#define GQZOO_RPQ_RPQ_EVAL_H_

#include <utility>
#include <vector>

#include "src/automata/nfa.h"
#include "src/graph/csr.h"
#include "src/util/cancellation.h"
#include "src/util/thread_pool.h"

namespace gqzoo {

/// RPQ evaluation by product-graph reachability (Section 6.2): polynomial
/// time in |G| and |N_R|.
///
/// Every entry point is the BFS of the product-search kernel
/// (automata/product_search.h) over its plain step: a reached state
/// `(v, q)` expands by `nfa.Out(q)` × `GraphSnapshot::ForEachMatch`, so a
/// transition iterates only its label slice, O(deg_label(v)) per step. A
/// search from one source holds a |V|·|Q|-bit visited set and a |V|-bit
/// endpoint set, each charged before it is allocated, and a queue charged
/// as it grows.
///
/// All entry points accept an optional cooperative `CancellationToken`;
/// when it trips mid-search the result is a (valid but incomplete) prefix —
/// callers that care distinguish via the context's stop cause. A partial
/// result produced by a trip skips its final sort (the caller is about to
/// discard it, and prompt unwinding is the contract).

/// `[[R]]_G`: all node pairs `(u, v)` connected by a path whose edge-label
/// word is in L(R). Result is sorted and duplicate-free (set semantics).
std::vector<std::pair<NodeId, NodeId>> EvalRpq(
    const GraphSnapshot& s, const Nfa& nfa,
    const CancellationToken* cancel = nullptr);

/// All `v` with `(u, v) ∈ [[R]]_G`: a single lazy BFS from `(u, q0)`.
std::vector<NodeId> EvalRpqFrom(const GraphSnapshot& s, const Nfa& nfa,
                                NodeId u,
                                const CancellationToken* cancel = nullptr);

/// Is `(u, v) ∈ [[R]]_G`? Early-exiting BFS.
bool EvalRpqPair(const GraphSnapshot& s, const Nfa& nfa, NodeId u, NodeId v,
                 const CancellationToken* cancel = nullptr);

/// Source-sharded parallel evaluation of `[[R]]_G` over a snapshot.
struct ParallelRpqOptions {
  /// Pool to borrow helpers from; null runs sequentially. The *calling*
  /// thread always participates and can finish every shard by itself, so
  /// evaluation never blocks on a saturated (or shut-down) pool and is
  /// safe to call from inside a pool task.
  ThreadPool* pool = nullptr;
  /// Source-range shards to split the node set into; 0 picks a multiple
  /// of the worker count. Clamped so each shard has ≥ 1 source.
  size_t num_shards = 0;
  /// Optional governed context. Each shard runs against a forked copy of
  /// it (core-local counters), merged back first-cause-wins via
  /// `QueryContext::MergeShard`.
  const QueryContext* cancel = nullptr;
};

/// Same relation as `EvalRpq(s, nfa)` — sorted, duplicate-free — with
/// source BFS roots sharded across the pool. Falls back to the sequential
/// path for small graphs (sharding overhead dominates, and governed tests
/// stay deterministic) or when no pool is supplied.
std::vector<std::pair<NodeId, NodeId>> EvalRpqParallel(
    const GraphSnapshot& s, const Nfa& nfa,
    const ParallelRpqOptions& options = {});

}  // namespace gqzoo

#endif  // GQZOO_RPQ_RPQ_EVAL_H_
