#ifndef GQZOO_DATATEST_DL_EVAL_H_
#define GQZOO_DATATEST_DL_EVAL_H_

#include <utility>
#include <vector>

#include "src/crpq/crpq.h"
#include "src/datatest/dl_rpq.h"
#include "src/graph/csr.h"
#include "src/graph/path_binding.h"
#include "src/pmr/enumerate.h"
#include "src/rel/wcoj.h"

namespace gqzoo {

/// Evaluator for dl-RPQs (Section 3.2.1) over property graphs.
///
/// Runs are explored over *configurations* (NFA state, last path object,
/// valuation ν) — the register-automaton product of Section 6.4's "Data
/// Filters" discussion, generalized to treat nodes and edges symmetrically.
/// A step either *appends* an object (node → one of its out-edges; edge →
/// its target node) or *collapses* (re-matches the current last object,
/// using the paper's `p · path(o) = p` rule), which is how multi-atom
/// constraints like `[a^z][date > x][x := date]` apply to a single edge.
///
/// The configuration space is finite (valuations only hold values copied
/// from the graph), so pair reachability is decidable in polynomial time
/// for a fixed number of data variables — matching the NLOGSPACE data
/// complexity of [Libkin, Martens, Vrgoč 2016].
class DlEvaluator {
 public:
  /// `snapshot` (not owned, non-null, over the same graph) routes
  /// configuration expansion through per-label adjacency slices: an
  /// edge-targeting label atom enumerates only the out-edges its predicate
  /// matches instead of the node's full adjacency list.
  DlEvaluator(const PropertyGraph& g, const DlNfa& nfa,
              const GraphSnapshot* snapshot)
      : g_(&g), nfa_(&nfa), snapshot_(snapshot) {}

  /// All nodes `v` such that some non-empty-endpoint path from `u` to `v`
  /// satisfies the dl-RPQ (σ endpoints: src(p) = u, tgt(p) = v; paths may
  /// start/end with edges). Stops early (partial result) when `cancel`
  /// trips.
  std::vector<NodeId> ReachableFrom(
      NodeId u, const CancellationToken* cancel = nullptr) const;

  /// All endpoint pairs ([[R]] projected to (src, tgt)).
  std::vector<std::pair<NodeId, NodeId>> AllPairs(
      const CancellationToken* cancel = nullptr) const;

  /// Enumerates `mode(σ_{u,v}([[R]]_G))`, deduplicated. `shortest` is
  /// computed by first finding the optimal length via 0/1-weighted BFS on
  /// configurations (edge appends cost 1), then enumerating at that depth.
  std::vector<PathBinding> CollectModePaths(NodeId u, NodeId v, PathMode mode,
                                            const EnumerationLimits& limits,
                                            EnumerationStats* stats = nullptr) const;

  /// Length of the shortest path from `u` to `v` satisfying the dl-RPQ, or
  /// SIZE_MAX if none exists.
  size_t ShortestLength(NodeId u, NodeId v,
                        const CancellationToken* cancel = nullptr) const;

 private:
  const PropertyGraph* g_;
  const DlNfa* nfa_;
  const GraphSnapshot* snapshot_;
};

/// Evaluates a dl-CRPQ (Section 3.2.2): the Crpq structure with dl-dialect
/// regexes, over a property graph. Semantics and options mirror EvalCrpq.
struct DlCrpqEvalOptions {
  size_t max_bindings_per_pair = 100000;
  size_t max_path_length = 1000;
  /// Optional cooperative cancellation (deadlines). Not owned.
  const CancellationToken* cancel = nullptr;
  /// Label-partitioned view of the same graph (not owned); see
  /// DlEvaluator. Required: EvalDlCrpq rejects a missing snapshot with
  /// kInvalidArgument.
  const GraphSnapshot* snapshot = nullptr;
  /// Precompiled per-atom automata, parallel to the query's atoms (not
  /// owned). Null = compile per call; see CrpqEvalOptions::atom_nfas.
  const std::vector<DlNfa>* atom_nfas = nullptr;
  /// Planner execution order over atom indices; null (or wrong size) =
  /// textual order. Result sets are identical either way.
  const std::vector<size_t>* join_order = nullptr;
  /// Planned worst-case-optimal join group for a cyclic core of
  /// single-label atoms; see CrpqEvalOptions::wcoj.
  const rel::WcojSpec* wcoj = nullptr;
  /// Route joins/projection through the columnar batch kernel; see
  /// CrpqEvalOptions::use_batch.
  bool use_batch = false;
};

Result<CrpqResult> EvalDlCrpq(const PropertyGraph& g, const Crpq& q,
                              const DlCrpqEvalOptions& options);

}  // namespace gqzoo

#endif  // GQZOO_DATATEST_DL_EVAL_H_
