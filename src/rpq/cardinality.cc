#include "src/rpq/cardinality.h"

#include <algorithm>
#include <random>

#include "src/rpq/rpq_eval.h"

namespace gqzoo {

GraphStatistics::GraphStatistics(const GraphSnapshot& s)
    : num_nodes_(s.NumNodes()), num_edges_(s.graph().NumEdges()) {
  const EdgeLabeledGraph& g = s.graph();
  const size_t num_labels = g.NumLabels();
  edge_count_.assign(num_labels, 0);
  distinct_src_.resize(num_labels);
  distinct_tgt_.resize(num_labels);
  std::vector<NodeId> srcs, tgts;
  for (LabelId l = 0; l < num_labels; ++l) {
    GraphSnapshot::Slice slice = s.EdgesWithLabel(l);
    edge_count_[l] = slice.size();
    srcs.clear();
    tgts.clear();
    for (const GraphSnapshot::Hop& hop : slice) {
      srcs.push_back(g.Src(hop.edge));
      tgts.push_back(hop.node);
    }
    std::sort(srcs.begin(), srcs.end());
    std::sort(tgts.begin(), tgts.end());
    distinct_src_[l] = std::unique(srcs.begin(), srcs.end()) - srcs.begin();
    distinct_tgt_[l] = std::unique(tgts.begin(), tgts.end()) - tgts.begin();
  }
}

size_t GraphStatistics::EdgeCount(LabelId l) const {
  return l < edge_count_.size() ? edge_count_[l] : 0;
}

size_t GraphStatistics::DistinctSources(LabelId l) const {
  return l < distinct_src_.size() ? distinct_src_[l] : 0;
}

size_t GraphStatistics::DistinctTargets(LabelId l) const {
  return l < distinct_tgt_.size() ? distinct_tgt_[l] : 0;
}

double GraphStatistics::AvgOutDegree(LabelId l) const {
  return num_nodes_ == 0
             ? 0.0
             : static_cast<double>(EdgeCount(l)) / static_cast<double>(num_nodes_);
}

double GraphStatistics::EdgesMatching(const LabelPred& pred) const {
  switch (pred.kind) {
    case LabelPred::Kind::kNone:
      return 0.0;
    case LabelPred::Kind::kOne:
      return static_cast<double>(EdgeCount(pred.labels[0]));
    case LabelPred::Kind::kNegSet: {
      double excluded = 0;
      for (LabelId l : pred.labels) {
        excluded += static_cast<double>(EdgeCount(l));
      }
      return static_cast<double>(num_edges_) - excluded;
    }
    case LabelPred::Kind::kAny:
      return static_cast<double>(num_edges_);
  }
  return 0.0;
}

double EstimateRpqCardinalitySynopsis(const GraphStatistics& stats,
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
        contribution[t.to] += r[q] * (stats.EdgesMatching(t.pred) / n);
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
