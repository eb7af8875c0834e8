#ifndef GQZOO_RPQ_PRODUCT_GRAPH_H_
#define GQZOO_RPQ_PRODUCT_GRAPH_H_

#include <cstdint>
#include <vector>

#include "src/automata/nfa.h"
#include "src/graph/csr.h"

namespace gqzoo {

/// The product graph `G × N_R` of Section 6.2: nodes are pairs `(v, q)` of
/// a graph node and an automaton state; there is an edge
/// `(e, (q1, a, q2))` from `(src(e), q1)` to `(tgt(e), q2)` whenever the
/// transition's predicate matches `λ(e)`.
///
/// Product nodes are encoded densely as `v * num_states + q`, so the
/// structure is just adjacency lists plus bookkeeping. Transitions keep
/// their capture annotation so the PMR layer (src/pmr) can enumerate
/// l-RPQ bindings from the same structure.
///
/// Ids stay 32-bit because this class *materializes* one adjacency list
/// per product node — a product past 2^32 nodes could not be allocated in
/// any case — but the constructors size the product in 64 bits and throw
/// `std::length_error` instead of silently wrapping (the lazy BFS in
/// rpq_eval handles oversized products; only materialization is bounded).
class ProductGraph {
 public:
  struct Arc {
    uint32_t to;        // encoded product node
    EdgeId edge;        // the underlying graph edge
    uint32_t capture;   // Nfa::kNoCapture or a capture index
    bool reversed;      // arc from an inverse transition (2RPQs, Remark 9)
  };

  /// Label-sliced construction: each transition pulls exactly its
  /// matching edges from the snapshot's per-label edge lists. Per-node arc
  /// lists are then canonicalized to edge-major order (transition order
  /// within an edge), so downstream enumeration — including the prefix a
  /// truncated enumeration keeps — does not depend on the NFA's transition
  /// order.
  ProductGraph(const GraphSnapshot& s, const Nfa& nfa);

  uint32_t num_product_nodes() const {
    return static_cast<uint32_t>(out_.size());
  }
  /// 64-bit arithmetic: `v * num_states` overflows uint32 on the paper's
  /// large families even when the materialized product (guarded at
  /// construction) fits.
  uint32_t Encode(NodeId v, uint32_t q) const {
    return static_cast<uint32_t>(static_cast<uint64_t>(v) * num_states_ + q);
  }
  NodeId GraphNode(uint32_t id) const { return id / num_states_; }
  uint32_t State(uint32_t id) const { return id % num_states_; }

  const std::vector<Arc>& Out(uint32_t id) const { return out_[id]; }

  uint32_t num_states() const { return num_states_; }
  const Nfa& nfa() const { return *nfa_; }

  size_t NumArcs() const;

  /// Is `(v, q)` accepting (q accepting in the NFA)?
  bool Accepting(uint32_t id) const { return nfa_->accepting(State(id)); }

 private:
  /// Throws std::length_error unless the product fits 32-bit ids.
  void AllocateProduct(size_t num_nodes);
  void AddArcsFor(uint32_t q, const Nfa::Transition& t, EdgeId e, NodeId src,
                  NodeId tgt);

  const Nfa* nfa_;
  uint32_t num_states_;
  std::vector<std::vector<Arc>> out_;
};

}  // namespace gqzoo

#endif  // GQZOO_RPQ_PRODUCT_GRAPH_H_
