#ifndef GQZOO_PLANNER_CARDINALITY_H_
#define GQZOO_PLANNER_CARDINALITY_H_

#include <cstdint>
#include <vector>

#include "src/automata/nfa.h"
#include "src/graph/csr.h"
#include "src/planner/stats.h"

namespace gqzoo {

/// Cardinality estimation for RPQs — Section 7.1 names "how to develop
/// cardinality estimation approaches for (C)RPQs" as an open direction;
/// this module provides the two textbook baselines a query optimizer
/// would start from.

/// Synopsis-based estimate of |[[R]]_G| (number of answer pairs), under
/// edge-independence: propagate an expected frontier size through the
/// automaton per start node, with saturation at |V| and a bounded number
/// of star iterations. Reads only the per-label edge counts of the
/// planner's statistics. Fast (no graph access beyond them) but can be
/// badly off on correlated graphs — that is the point of the E17 bench.
double EstimateRpqCardinalitySynopsis(const SnapshotStats& stats,
                                      const Nfa& nfa,
                                      size_t max_iterations = 32);

/// Sampling-based estimate: run the exact single-source evaluation from
/// `sample_size` uniformly random start nodes and scale up. Unbiased, cost
/// proportional to the sampled BFS work.
double EstimateRpqCardinalitySampling(const GraphSnapshot& s, const Nfa& nfa,
                                      size_t sample_size, uint64_t seed);

}  // namespace gqzoo

#endif  // GQZOO_PLANNER_CARDINALITY_H_
