#include "src/pmr/build.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <unordered_map>

namespace gqzoo {

namespace {

// Approximate bytes per reached product state (id map entry, PMR node
// slot, automaton state) and per PMR arc (edge record plus out-list
// index), charged while the untrimmed PMR is being built.
constexpr uint64_t kStateBytes = 64;
constexpr uint64_t kArcBytes = 24;

// One out-arc of the state being expanded, before canonical ordering.
struct Arc {
  EdgeId edge;
  uint32_t transition;  // index into nfa.Out(q)
  NodeId to;
};

}  // namespace

Pmr BuildPmr(const GraphSnapshot& s, const Nfa& nfa,
             const std::vector<NodeId>& sources,
             const std::vector<NodeId>& targets,
             const CancellationToken* cancel) {
  // PMRs represent one-way paths (Remark 9): inverse transitions have no
  // path witness in this model.
  assert(!nfa.HasInverse() && "PMRs require one-way automata");
  const EdgeLabeledGraph& g = s.graph();
  const uint32_t num_states = nfa.num_states();
  Pmr pmr(g);
  pmr.capture_names() = nfa.capture_names();
  ScopedMemoryCharge build_bytes(cancel);
  // Reached product states (v, q), packed as v * |Q| + q in 64 bits, map
  // to PMR nodes numbered in discovery order; γ projects to v.
  auto key = [num_states](NodeId v, uint32_t q) {
    return static_cast<uint64_t>(v) * num_states + q;
  };
  std::unordered_map<uint64_t, uint32_t> node_of;
  std::vector<uint32_t> state_of;  // PMR node → automaton state
  auto reach = [&](NodeId v, uint32_t q) {
    auto [it, inserted] = node_of.try_emplace(key(v, q), 0);
    if (inserted) {
      it->second = pmr.AddNode(v);
      state_of.push_back(q);
      build_bytes.Charge(kStateBytes);  // a trip is seen by ShouldStop below
    }
    return it->second;
  };
  if (sources.empty()) {
    for (NodeId u = 0; u < g.NumNodes(); ++u) {
      pmr.AddSource(reach(u, nfa.initial()));
    }
  } else {
    for (NodeId u : sources) pmr.AddSource(reach(u, nfa.initial()));
  }

  // Nodes are numbered in discovery order, so visiting them by id is the
  // BFS queue.
  std::vector<Arc> arcs;
  for (uint32_t n = 0; n < pmr.NumNodes(); ++n) {
    if (ShouldStop(cancel)) return Pmr(g);
    const NodeId v = pmr.GammaNode(n);
    const std::vector<Nfa::Transition>& out = nfa.Out(state_of[n]);
    arcs.clear();
    for (uint32_t i = 0; i < out.size(); ++i) {
      s.ForEachMatch(v, out[i].pred, /*inverse=*/false,
                     [&](const GraphSnapshot::Hop& hop) {
                       arcs.push_back({hop.edge, i, hop.node});
                     });
    }
    // Edge-major, transition order on ties: enumeration order, and so the
    // prefix a truncated enumeration keeps, follows edge ids.
    std::sort(arcs.begin(), arcs.end(), [](const Arc& a, const Arc& b) {
      return a.edge != b.edge ? a.edge < b.edge : a.transition < b.transition;
    });
    for (const Arc& arc : arcs) {
      const Nfa::Transition& t = out[arc.transition];
      pmr.AddEdge(n, reach(arc.to, t.to), arc.edge, t.capture);
    }
    build_bytes.Charge(arcs.size() * kArcBytes);
  }
  if (HasStopped(cancel)) return Pmr(g);

  if (targets.empty()) {
    for (uint32_t n = 0; n < pmr.NumNodes(); ++n) {
      if (nfa.accepting(state_of[n])) pmr.AddTarget(n);
    }
  } else {
    for (NodeId v : targets) {
      for (uint32_t q = 0; q < num_states; ++q) {
        if (!nfa.accepting(q)) continue;
        auto it = node_of.find(key(v, q));
        if (it != node_of.end()) pmr.AddTarget(it->second);
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
