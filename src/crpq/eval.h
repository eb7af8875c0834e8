#ifndef GQZOO_CRPQ_EVAL_H_
#define GQZOO_CRPQ_EVAL_H_

#include <vector>

#include "src/automata/nfa.h"
#include "src/crpq/crpq.h"
#include "src/crpq/modes.h"
#include "src/graph/csr.h"
#include "src/rel/wcoj.h"
#include "src/util/result.h"
#include "src/util/thread_pool.h"

namespace gqzoo {

/// Evaluation limits. The semantics of l-CRPQs can have infinitely many
/// list bindings under mode `all` (Section 6.3); the evaluator truncates at
/// these caps and reports it via CrpqResult::truncated.
struct CrpqEvalOptions {
  /// Per endpoint pair: maximum distinct (path, µ) enumerated per atom.
  size_t max_bindings_per_pair = 100000;
  /// Maximum path length explored during enumeration.
  size_t max_path_length = 1000;
  /// Optional cooperative cancellation (deadlines); evaluation returns a
  /// truncated result once the token trips. Not owned.
  const CancellationToken* cancel = nullptr;
  /// Label-partitioned view of the same graph (not owned; must outlive the
  /// call). Required: atom reachability, product-graph construction and
  /// path search all iterate its per-label slices. EvalCrpq rejects a
  /// missing snapshot with kInvalidArgument.
  const GraphSnapshot* snapshot = nullptr;
  /// Optional pool (not owned) for sharding unconstrained atom seeding
  /// (`R(x, y)` with both endpoints free) by source node.
  ThreadPool* pool = nullptr;
  /// Shards for the parallel atom seeding; 0 = pick from pool size.
  size_t num_shards = 0;
  /// Precompiled per-atom automata, parallel to the query's atoms (not
  /// owned; must outlive the call). Compiled plans supply these so cached
  /// executions never re-run the Glushkov construction; when null, each
  /// atom's NFA is compiled on the fly (direct callers, regular queries).
  const std::vector<Nfa>* atom_nfas = nullptr;
  /// Conjunct execution order: a permutation of atom indices from the
  /// planner. Null (or wrong size) = textual order. Results are identical
  /// either way under set semantics; only intermediate-join sizes differ.
  const std::vector<size_t>* join_order = nullptr;
  /// Planned worst-case-optimal join group for a cyclic core (not owned;
  /// produced by plan.cc): the core atoms are answered by one generic join
  /// over the per-label CSR slices and skipped in the binary join loop.
  /// Results are identical; only the intermediates differ (no binary
  /// blowup on triangles/cliques).
  const rel::WcojSpec* wcoj = nullptr;
  /// Run joins and head projection through the columnar batch kernel
  /// (rel/batch.h). Byte-identical rows and budget charges — the engine
  /// keeps both kernels live as differential oracles.
  bool use_batch = false;
};

/// Evaluates a CRPQ / l-CRPQ on `g` per Sections 3.1.2 and 3.1.5.
///
/// Per the definition of (restricted) path homomorphisms, path modes act
/// only through list variables: an atom with no list variables contributes
/// exactly the endpoint pairs [[R]]_G (computed by product reachability,
/// never enumerating paths), while an atom with list variables contributes,
/// for every endpoint pair (u, v), the bindings of
/// `mode(σ_{u,v}([[R]]_G))` — the endpoint-pair grouping of Example 17.
Result<CrpqResult> EvalCrpq(const EdgeLabeledGraph& g, const Crpq& q,
                            const CrpqEvalOptions& options);

}  // namespace gqzoo

#endif  // GQZOO_CRPQ_EVAL_H_
