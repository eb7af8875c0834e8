#ifndef GQZOO_RPQ_CARDINALITY_H_
#define GQZOO_RPQ_CARDINALITY_H_

#include <cstdint>
#include <vector>

#include "src/automata/nfa.h"
#include "src/graph/csr.h"

namespace gqzoo {

/// Cardinality estimation for RPQs — Section 7.1 names "how to develop
/// cardinality estimation approaches for (C)RPQs" as an open direction;
/// this module provides the two textbook baselines a query optimizer
/// would start from.

/// Per-label synopsis of a graph: edge counts and distinct endpoint counts
/// (the analogue of relational per-attribute statistics).
class GraphStatistics {
 public:
  /// Built from the snapshot's per-label edge lists (one pass per label
  /// slice).
  explicit GraphStatistics(const GraphSnapshot& s);

  size_t num_nodes() const { return num_nodes_; }
  size_t EdgeCount(LabelId l) const;
  size_t DistinctSources(LabelId l) const;
  size_t DistinctTargets(LabelId l) const;

  /// Expected out-degree via label `l` from a uniformly random node.
  double AvgOutDegree(LabelId l) const;

  /// Total edges matching a predicate (exact, from the synopsis).
  double EdgesMatching(const LabelPred& pred) const;

 private:
  size_t num_nodes_;
  size_t num_edges_;
  std::vector<size_t> edge_count_;        // by label
  std::vector<size_t> distinct_src_;      // by label
  std::vector<size_t> distinct_tgt_;      // by label
};

/// Synopsis-based estimate of |[[R]]_G| (number of answer pairs), under
/// edge-independence: propagate an expected frontier size through the
/// automaton per start node, with saturation at |V| and a bounded number
/// of star iterations. Fast (no graph access beyond the synopsis) but can
/// be badly off on correlated graphs — that is the point of the E17 bench.
double EstimateRpqCardinalitySynopsis(const GraphStatistics& stats,
                                      const Nfa& nfa,
                                      size_t max_iterations = 32);

/// Sampling-based estimate: run the exact single-source evaluation from
/// `sample_size` uniformly random start nodes and scale up. Unbiased, cost
/// proportional to the sampled BFS work.
double EstimateRpqCardinalitySampling(const GraphSnapshot& s, const Nfa& nfa,
                                      size_t sample_size, uint64_t seed);

}  // namespace gqzoo

#endif  // GQZOO_RPQ_CARDINALITY_H_
