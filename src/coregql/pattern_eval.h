#ifndef GQZOO_COREGQL_PATTERN_EVAL_H_
#define GQZOO_COREGQL_PATTERN_EVAL_H_

#include <map>
#include <optional>

#include "src/coregql/pattern.h"
#include "src/graph/csr.h"
#include "src/graph/graph.h"
#include "src/graph/path.h"
#include "src/util/cancellation.h"
#include "src/util/result.h"

namespace gqzoo {

/// A CoreGQL binding µ: free variables to graph elements (Figure 4).
using CoreBinding = std::map<std::string, ObjectRef>;

/// Evaluates a condition θ against µ per Figure 4. Comparisons involving an
/// unbound variable or an undefined property are false (CoreGQL has no
/// nulls; ¬ flips as usual).
bool EvalCoreCondition(const PropertyGraph& g, const CoreCondition& cond,
                       const CoreBinding& mu);

/// One result of pair-level pattern evaluation: the endpoints of the
/// matched path and the binding of the pattern's free variables.
struct CorePairRow {
  NodeId src;
  NodeId tgt;
  CoreBinding mu;

  bool operator==(const CorePairRow& o) const {
    return src == o.src && tgt == o.tgt && mu == o.mu;
  }
  bool operator<(const CorePairRow& o) const {
    if (src != o.src) return src < o.src;
    if (tgt != o.tgt) return tgt < o.tgt;
    return mu < o.mu;
  }
};

/// Calls `fn(ObjectRef)` for every element the node or edge atom `p`
/// matches, in ascending id order. Label-filtered atoms are index lookups
/// on `snapshot` (a snapshot of `g`): edge atoms read `EdgesWithLabel`,
/// and node atoms read `NodesWithLabel` when the snapshot was built from a
/// property graph (otherwise they scan and filter the nodes).
template <typename Fn>
void ForEachAtomMatch(const PropertyGraph& g, const GraphSnapshot& snapshot,
                      const CorePattern& p, Fn&& fn) {
  std::optional<LabelId> label;
  if (p.label().has_value()) {
    label = g.FindLabel(*p.label());
    if (!label.has_value()) return;  // an unknown label matches nothing
  }
  if (p.kind() == CorePattern::Kind::kEdge) {
    if (label.has_value()) {
      for (const GraphSnapshot::Hop& hop : snapshot.EdgesWithLabel(*label)) {
        fn(ObjectRef::Edge(hop.edge));
      }
    } else {
      for (EdgeId e = 0; e < g.NumEdges(); ++e) fn(ObjectRef::Edge(e));
    }
    return;
  }
  if (label.has_value() && snapshot.has_node_labels()) {
    for (NodeId n : snapshot.NodesWithLabel(*label)) fn(ObjectRef::Node(n));
    return;
  }
  for (NodeId n = 0; n < g.NumNodes(); ++n) {
    ObjectRef o = ObjectRef::Node(n);
    if (!label.has_value() || g.ObjectLabel(o) == *label) fn(o);
  }
}

/// The path a single atom match stands for: `path(n)` for a node,
/// `src(e) e tgt(e)` for an edge.
Path AtomPath(const PropertyGraph& g, ObjectRef o);

/// Exact, always-terminating evaluation of `{(src(p), tgt(p), µ) | (p, µ) ∈
/// [[π]]_G}` — finite even when [[π]]_G is infinite, because paths are
/// projected to endpoints (repetition contributes endpoint pairs computed
/// by reachability over the one-iteration pair relation). This is all a
/// CoreGQL *relation* needs (Section 4.1.2: outputs are first-normal-form).
/// `snapshot` (not owned) is a snapshot of `g`; atoms read its label
/// indexes (see ForEachAtomMatch).
Result<std::vector<CorePairRow>> EvalPatternPairs(
    const PropertyGraph& g, const CorePattern& pattern,
    const GraphSnapshot& snapshot,
    const CancellationToken* cancel = nullptr);

/// One result of path-level evaluation: the matched path itself plus µ.
/// Needed for the `p = π` path-binding extension of Section 5.2.
struct CorePathRow {
  Path path;
  CoreBinding mu;

  bool operator==(const CorePathRow& o) const {
    return path == o.path && mu == o.mu;
  }
  bool operator<(const CorePathRow& o) const {
    if (path != o.path) return path < o.path;
    return mu < o.mu;
  }
};

struct CorePathEvalOptions {
  size_t max_path_length = 32;
  size_t max_results = 200000;
  /// Optional cooperative cancellation (deadlines); enumeration returns a
  /// truncated result once the token trips. Not owned.
  const CancellationToken* cancel = nullptr;
  /// Label-partitioned view of the same graph (not owned); see
  /// ForEachAtomMatch. Required: EvalPatternPaths, EvalCoreGqlQuery and
  /// EvalGqlGroupPattern reject a missing snapshot with kInvalidArgument.
  const GraphSnapshot* snapshot = nullptr;
};

struct CorePathEvalResult {
  std::vector<CorePathRow> rows;
  bool truncated = false;
};

/// Reference (enumerative) evaluation of [[π]]_G as a set of (path, µ)
/// pairs, truncated at the limits — [[π]]_G can be infinite on cyclic
/// graphs. This is the engine behind path outputs; its cost on
/// `→* ... EXCEPT ...` pipelines is exactly the compositional-evaluation
/// penalty the paper observes (Section 5.2).
Result<CorePathEvalResult> EvalPatternPaths(
    const PropertyGraph& g, const CorePattern& pattern,
    const CorePathEvalOptions& options);

}  // namespace gqzoo

#endif  // GQZOO_COREGQL_PATTERN_EVAL_H_
