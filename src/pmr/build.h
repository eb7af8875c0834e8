#ifndef GQZOO_PMR_BUILD_H_
#define GQZOO_PMR_BUILD_H_

#include <vector>

#include "src/automata/nfa.h"
#include "src/graph/csr.h"
#include "src/pmr/pmr.h"
#include "src/util/cancellation.h"

namespace gqzoo {

/// Builds a (trimmed) PMR representing exactly the paths from `sources` to
/// `targets` whose label word is in L(nfa) — the product-graph-as-PMR
/// construction the paper describes for PathFinder-style engines (Section
/// 6.4). Capture annotations of the NFA are carried onto PMR edges, so the
/// result also represents the l-RPQ bindings.
///
/// When `sources` (`targets`) is empty, all graph nodes qualify. The
/// product `G × N_R` (Section 6.2) is never materialized: the BFS of the
/// product-search kernel (automata/product_search.h) runs from the sources
/// `(u, q0)` over the plain step, and only reached states become PMR
/// nodes, numbered in discovery order. `Trim()` then keeps the part
/// co-reachable to the accepting copies of the targets.
///
/// Sources keep the order given (node-id order when `sources` is empty),
/// and every node's out-arcs are in edge-major order (edge ids ascending,
/// the NFA's transition order on ties). The enumerators (enumerate.h)
/// depend only on those two orders, so the prefix a truncated enumeration
/// keeps does not depend on how the product was explored.
///
/// The search charges its visited set and queue, and the build its PMR
/// nodes and arcs, to `cancel` while it runs; each dequeued state probes
/// it. Once it trips the result is an empty PMR and the caller reads the
/// stop cause from the context.
Pmr BuildPmr(const GraphSnapshot& s, const Nfa& nfa,
             const std::vector<NodeId>& sources,
             const std::vector<NodeId>& targets,
             const CancellationToken* cancel = nullptr);

/// Convenience: single endpoint pair (σ_{u,v}([[R]]_G) as a PMR).
Pmr BuildPmrBetween(const GraphSnapshot& s, const Nfa& nfa, NodeId u,
                    NodeId v, const CancellationToken* cancel = nullptr);

}  // namespace gqzoo

#endif  // GQZOO_PMR_BUILD_H_
