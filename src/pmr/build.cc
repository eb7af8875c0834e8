#include "src/pmr/build.h"

#include <cassert>
#include <cstdint>
#include <numeric>

#include "src/automata/product_search.h"

namespace gqzoo {

namespace {

// Approximate bytes per PMR node (γ entry and out-list) and per PMR arc
// (edge record plus out-list index), charged while the untrimmed PMR is
// built. The search's own visited set and queue are charged by the
// kernel.
constexpr uint64_t kNodeBytes = sizeof(NodeId) + sizeof(std::vector<uint32_t>);
constexpr uint64_t kArcBytes = sizeof(Pmr::Edge) + sizeof(uint32_t);

}  // namespace

Pmr BuildPmr(const GraphSnapshot& s, const Nfa& nfa,
             const std::vector<NodeId>& sources,
             const std::vector<NodeId>& targets,
             const CancellationToken* cancel) {
  // PMRs represent one-way paths (Remark 9): inverse transitions have no
  // path witness in this model.
  assert(!nfa.HasInverse() && "PMRs require one-way automata");
  const EdgeLabeledGraph& g = s.graph();
  Pmr pmr(g);
  pmr.capture_names() = nfa.capture_names();
  std::vector<NodeId> all_nodes;
  if (sources.empty()) {
    all_nodes.resize(g.NumNodes());
    std::iota(all_nodes.begin(), all_nodes.end(), NodeId{0});
  }
  // Reached product states get visited slots in discovery order, which
  // are exactly the PMR's node ids; γ projects a state to its node.
  PlainStep step(s, nfa, PlainStep::Order::kEdgeMajor);
  SparseVisited<PlainStep> visited;
  ScopedMemoryCharge build_bytes(cancel);
  ProductBfs(
      step, visited,
      std::span<const NodeId>(sources.empty() ? all_nodes : sources), cancel,
      [](uint64_t, uint32_t) { return true; },
      [&](const uint32_t* from, uint32_t to,
          const ProductArc<uint64_t>& arc) {
        if (to == pmr.NumNodes()) {
          pmr.AddNode(step.Endpoint(arc.to));
          build_bytes.Charge(kNodeBytes);  // a trip stops the search
        }
        if (from == nullptr) {
          pmr.AddSource(to);
        } else {
          pmr.AddEdge(*from, to, arc.edge, arc.capture);
          build_bytes.Charge(kArcBytes);
        }
      });
  if (HasStopped(cancel)) return Pmr(g);

  if (targets.empty()) {
    for (uint32_t n = 0; n < visited.size(); ++n) {
      if (step.Accepting(visited.StateOf(n))) pmr.AddTarget(n);
    }
  } else {
    for (NodeId v : targets) {
      for (uint32_t q = 0; q < nfa.num_states(); ++q) {
        if (!nfa.accepting(q)) continue;
        if (const uint32_t* n = visited.Find(step.Pack(v, q))) {
          pmr.AddTarget(*n);
        }
      }
    }
  }
  return pmr.Trim();
}

Pmr BuildPmrBetween(const GraphSnapshot& s, const Nfa& nfa, NodeId u,
                    NodeId v, const CancellationToken* cancel) {
  return BuildPmr(s, nfa, {u}, {v}, cancel);
}

}  // namespace gqzoo
