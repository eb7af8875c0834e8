#include "src/planner/cardinality.h"

#include <algorithm>
#include <random>

#include "src/rpq/rpq_eval.h"

namespace gqzoo {

double EstimateRpqCardinalitySynopsis(const SnapshotStats& stats,
                                      const Nfa& nfa, size_t max_iterations) {
  const double n = static_cast<double>(stats.num_nodes());
  if (n == 0) return 0.0;
  // r[q]: expected number of distinct nodes reachable (from one uniformly
  // random start node) while the automaton is in state q. Propagated to a
  // bounded fixpoint under the independence assumption, saturating at |V|.
  std::vector<double> r(nfa.num_states(), 0.0);
  r[nfa.initial()] = 1.0;
  for (size_t iter = 0; iter < max_iterations; ++iter) {
    std::vector<double> contribution(nfa.num_states(), 0.0);
    for (uint32_t q = 0; q < nfa.num_states(); ++q) {
      if (r[q] == 0.0) continue;
      for (const Nfa::Transition& t : nfa.Out(q)) {
        // Expected successors per reached node ≈ matching edges / |V|
        // (for inverse transitions the same ratio serves as the expected
        // in-degree).
        contribution[t.to] +=
            r[q] * (static_cast<double>(stats.EdgesMatching(t.pred)) / n);
      }
    }
    bool changed = false;
    for (uint32_t q = 0; q < nfa.num_states(); ++q) {
      double updated = std::min(n, std::max(r[q], contribution[q]));
      if (updated > r[q] * 1.0001 + 1e-12) changed = true;
      r[q] = updated;
    }
    if (!changed) break;
  }
  double per_start = 0.0;
  for (uint32_t q = 0; q < nfa.num_states(); ++q) {
    if (nfa.accepting(q)) per_start += r[q];
  }
  per_start = std::min(per_start, n);
  return std::min(per_start * n, n * n);
}

double EstimateRpqCardinalitySampling(const GraphSnapshot& s, const Nfa& nfa,
                                      size_t sample_size, uint64_t seed) {
  if (s.NumNodes() == 0 || sample_size == 0) return 0.0;
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<NodeId> pick(
      0, static_cast<NodeId>(s.NumNodes() - 1));
  size_t total = 0;
  for (size_t i = 0; i < sample_size; ++i) {
    total += EvalRpqFrom(s, nfa, pick(rng)).size();
  }
  return static_cast<double>(total) / static_cast<double>(sample_size) *
         static_cast<double>(s.NumNodes());
}

}  // namespace gqzoo
