#include "src/automata/counting.h"

namespace gqzoo {

BigUint CountAcceptingRuns(const Nfa& a, const std::vector<LabelId>& word) {
  std::vector<BigUint> current(a.num_states());
  current[a.initial()] = BigUint(1);
  for (LabelId l : word) {
    std::vector<BigUint> next(a.num_states());
    for (uint32_t s = 0; s < a.num_states(); ++s) {
      if (current[s].is_zero()) continue;
      for (const Nfa::Transition& t : a.Out(s)) {
        if (t.pred.Matches(l)) next[t.to] += current[s];
      }
    }
    current = std::move(next);
  }
  BigUint total;
  for (uint32_t s = 0; s < a.num_states(); ++s) {
    if (a.accepting(s)) total += current[s];
  }
  return total;
}

BigUint CountRunsOnPaths(const GraphSnapshot& s, const Nfa& a, NodeId u,
                         NodeId v, size_t max_len) {
  // count[n][q] = number of (path, run) pairs of the current length from
  // (u, initial) to (n, q).
  const size_t num_nodes = s.NumNodes();
  const uint32_t num_states = a.num_states();
  std::vector<std::vector<BigUint>> current(num_nodes,
                                            std::vector<BigUint>(num_states));
  current[u][a.initial()] = BigUint(1);

  auto tally = [&](const std::vector<std::vector<BigUint>>& table) {
    BigUint total;
    for (uint32_t q = 0; q < num_states; ++q) {
      if (a.accepting(q)) total += table[v][q];
    }
    return total;
  };

  BigUint total = tally(current);
  for (size_t step = 0; step < max_len; ++step) {
    std::vector<std::vector<BigUint>> next(num_nodes,
                                           std::vector<BigUint>(num_states));
    bool any = false;
    for (NodeId n = 0; n < num_nodes; ++n) {
      for (uint32_t q = 0; q < num_states; ++q) {
        if (current[n][q].is_zero()) continue;
        for (const Nfa::Transition& t : a.Out(q)) {
          // Counting is over one-way paths; transitions step forward.
          s.ForEachMatch(n, t.pred, /*inverse=*/false,
                         [&](const GraphSnapshot::Hop& hop) {
                           next[hop.node][t.to] += current[n][q];
                           any = true;
                         });
        }
      }
    }
    if (!any) break;
    current = std::move(next);
    total += tally(current);
  }
  return total;
}

}  // namespace gqzoo
