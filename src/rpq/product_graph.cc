#include "src/rpq/product_graph.h"

#include <algorithm>
#include <stdexcept>

namespace gqzoo {

void ProductGraph::AllocateProduct(size_t num_nodes) {
  const uint64_t product =
      static_cast<uint64_t>(num_nodes) * num_states_;
  if (product > UINT32_MAX) {
    // One adjacency list per product node: a product past 2^32 could not
    // be materialized anyway, so fail loudly instead of wrapping ids.
    throw std::length_error(
        "ProductGraph: graph x NFA product exceeds 2^32 nodes; "
        "use the lazy product BFS (EvalRpq) instead of materializing");
  }
  out_.assign(static_cast<size_t>(product), {});
}

void ProductGraph::AddArcsFor(uint32_t q, const Nfa::Transition& t, EdgeId e,
                              NodeId src, NodeId tgt) {
  if (t.inverse) {
    out_[Encode(tgt, q)].push_back({Encode(src, t.to), e, t.capture, true});
  } else {
    out_[Encode(src, q)].push_back({Encode(tgt, t.to), e, t.capture, false});
  }
}

ProductGraph::ProductGraph(const GraphSnapshot& s, const Nfa& nfa)
    : nfa_(&nfa), num_states_(nfa.num_states()) {
  AllocateProduct(s.NumNodes());
  const EdgeLabeledGraph& g = s.graph();
  // Transition-major fill: each transition touches exactly the edges its
  // predicate matches, via the snapshot's graph-wide per-label edge lists.
  auto add_for_label = [&](uint32_t q, const Nfa::Transition& t, LabelId l) {
    for (const GraphSnapshot::Hop& hop : s.EdgesWithLabel(l)) {
      AddArcsFor(q, t, hop.edge, g.Src(hop.edge), hop.node);
    }
  };
  for (uint32_t q = 0; q < num_states_; ++q) {
    for (const Nfa::Transition& t : nfa.Out(q)) {
      switch (t.pred.kind) {
        case LabelPred::Kind::kNone:
          break;
        case LabelPred::Kind::kOne:
          add_for_label(q, t, t.pred.labels[0]);
          break;
        case LabelPred::Kind::kAny:
          for (LabelId l = 0; l < s.NumLabels(); ++l) add_for_label(q, t, l);
          break;
        case LabelPred::Kind::kNegSet:
          for (LabelId l = 0; l < s.NumLabels(); ++l) {
            if (t.pred.Matches(l)) add_for_label(q, t, l);
          }
          break;
      }
    }
  }
  // Canonicalize each node's arcs to edge-major order (stable keeps
  // transition order within an edge): enumeration order — and so the
  // prefix a truncated enumeration keeps — follows edge ids.
  for (auto& arcs : out_) {
    std::stable_sort(arcs.begin(), arcs.end(),
                     [](const Arc& a, const Arc& b) { return a.edge < b.edge; });
  }
}

size_t ProductGraph::NumArcs() const {
  size_t n = 0;
  for (const auto& arcs : out_) n += arcs.size();
  return n;
}

}  // namespace gqzoo
