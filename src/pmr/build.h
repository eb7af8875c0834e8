#ifndef GQZOO_PMR_BUILD_H_
#define GQZOO_PMR_BUILD_H_

#include <optional>
#include <vector>

#include "src/automata/nfa.h"
#include "src/graph/csr.h"
#include "src/pmr/pmr.h"
#include "src/rpq/product_graph.h"

namespace gqzoo {

/// Builds a (trimmed) PMR representing exactly the paths from `sources` to
/// `targets` whose label word is in L(nfa) — the product-graph-as-PMR
/// construction the paper describes for PathFinder-style engines (Section
/// 6.4). Capture annotations of the NFA are carried onto PMR edges, so the
/// result also represents the l-RPQ bindings.
///
/// When `sources` (`targets`) is empty, all graph nodes qualify. The
/// underlying product graph is built from the snapshot's label slices
/// (each NFA transition pulls exactly its matching edges).
Pmr BuildPmr(const GraphSnapshot& s, const Nfa& nfa,
             const std::vector<NodeId>& sources,
             const std::vector<NodeId>& targets);

/// Convenience: single endpoint pair (σ_{u,v}([[R]]_G) as a PMR).
Pmr BuildPmrBetween(const GraphSnapshot& s, const Nfa& nfa, NodeId u,
                    NodeId v);

}  // namespace gqzoo

#endif  // GQZOO_PMR_BUILD_H_
