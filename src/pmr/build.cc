#include "src/pmr/build.h"

#include <cassert>

namespace gqzoo {

Pmr BuildPmr(const GraphSnapshot& s, const Nfa& nfa,
             const std::vector<NodeId>& sources,
             const std::vector<NodeId>& targets) {
  // PMRs represent one-way paths (Remark 9): inverse transitions have no
  // path witness in this model.
  assert(!nfa.HasInverse() && "PMRs require one-way automata");
  ProductGraph product(s, nfa);
  const EdgeLabeledGraph& g = s.graph();
  Pmr pmr(g);
  pmr.capture_names() = nfa.capture_names();
  // PMR node i corresponds to product node i; γ projects to the graph node.
  for (uint32_t id = 0; id < product.num_product_nodes(); ++id) {
    pmr.AddNode(product.GraphNode(id));
  }
  for (uint32_t id = 0; id < product.num_product_nodes(); ++id) {
    for (const ProductGraph::Arc& arc : product.Out(id)) {
      pmr.AddEdge(id, arc.to, arc.edge, arc.capture);
    }
  }
  auto add_source = [&](NodeId u) {
    pmr.AddSource(product.Encode(u, nfa.initial()));
  };
  auto add_target = [&](NodeId v) {
    for (uint32_t q = 0; q < nfa.num_states(); ++q) {
      if (nfa.accepting(q)) pmr.AddTarget(product.Encode(v, q));
    }
  };
  if (sources.empty()) {
    for (NodeId u = 0; u < g.NumNodes(); ++u) add_source(u);
  } else {
    for (NodeId u : sources) add_source(u);
  }
  if (targets.empty()) {
    for (NodeId v = 0; v < g.NumNodes(); ++v) add_target(v);
  } else {
    for (NodeId v : targets) add_target(v);
  }
  return pmr.Trim();
}

Pmr BuildPmrBetween(const GraphSnapshot& s, const Nfa& nfa, NodeId u,
                    NodeId v) {
  return BuildPmr(s, nfa, {u}, {v});
}

}  // namespace gqzoo
