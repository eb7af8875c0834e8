#ifndef GQZOO_GRAPH_CSR_H_
#define GQZOO_GRAPH_CSR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/graph/graph.h"
#include "src/util/span.h"

namespace gqzoo {

struct LabelPred;  // automata/nfa.h; only ForEachMatch below needs it

namespace storage {
class SnapshotCodec;  // serializes/maps snapshots (storage/snapshot_format.h)
}

/// An immutable, label-partitioned CSR view of a graph — the adjacency
/// substrate every regular-path evaluator iterates.
///
/// Every practical engine surveyed in Angles et al. keeps adjacency
/// partitioned by edge label, because the inner loop of product-automaton
/// evaluation asks "successors of v via label a", not "successors of v".
/// A plain `EdgeLabeledGraph` answers that in O(deg(v)) by filtering;
/// this snapshot answers it in O(deg_a(v)) by slicing:
///
///  * `hops` — one entry per edge per direction, grouped by node, then by
///    label within the node, then by edge id (deterministic order);
///  * `node_begin` — per-node extents into `hops` (the wildcard slice);
///  * label runs — per-node directories of (label, begin, end) runs, so a
///    single-label slice is a binary search over the labels *present at
///    that node* (memory stays O(|E|), unlike a dense |N|x|L| offset
///    table, and degenerate graphs with thousands of labels cost nothing).
///
/// Snapshots are immutable: build once per graph epoch, share freely
/// across threads (all reads, no synchronization). The `QueryEngine`
/// caches one next to its plan cache and in-flight queries pin the
/// snapshot they started with. A snapshot borrows the graph it was built
/// from — the owner must keep that graph alive (the engine pairs the two
/// behind one lock).
///
/// Storage comes in two flavors behind one set of read accessors: built
/// snapshots own their arrays (vectors), while snapshots opened from the
/// on-disk format (storage/snapshot_format.h) view arrays living in a
/// memory-mapped file pinned by `pin_`. Every accessor reads through
/// `ConstSpan` views, so the two modes share one code path and answer
/// byte-identically.
class GraphSnapshot {
 public:
  /// One adjacency entry: the traversed edge and the node on its far side
  /// (target for out-hops, source for in-hops).
  struct Hop {
    EdgeId edge;
    NodeId node;
  };
  static_assert(sizeof(Hop) == 8, "Hop is serialized raw");

  /// A contiguous run of hops; iterable and random-accessible.
  class Slice {
   public:
    Slice() : begin_(nullptr), end_(nullptr) {}
    Slice(const Hop* begin, const Hop* end) : begin_(begin), end_(end) {}
    const Hop* begin() const { return begin_; }
    const Hop* end() const { return end_; }
    size_t size() const { return static_cast<size_t>(end_ - begin_); }
    bool empty() const { return begin_ == end_; }
    const Hop& operator[](size_t i) const { return begin_[i]; }

   private:
    const Hop* begin_;
    const Hop* end_;
  };

  explicit GraphSnapshot(const EdgeLabeledGraph& g);
  /// Also indexes nodes by node label (`NodesWithLabel`), which the
  /// CoreGQL pattern evaluator uses for label-filtered node atoms.
  explicit GraphSnapshot(const PropertyGraph& g);

  GraphSnapshot(const GraphSnapshot&) = delete;
  GraphSnapshot& operator=(const GraphSnapshot&) = delete;

  const EdgeLabeledGraph& graph() const { return *g_; }
  size_t NumNodes() const { return num_nodes_; }
  size_t NumEdges() const { return g_->NumEdges(); }
  size_t NumLabels() const { return num_labels_; }

  /// All out/in hops of `v` (the wildcard slice).
  Slice Out(NodeId v) const { return NodeSlice(out_, v); }
  Slice In(NodeId v) const { return NodeSlice(in_, v); }

  /// Hops of `v` whose edge carries label `l` — O(log #labels-at-v) lookup,
  /// then a dense scan of exactly deg_l(v) entries.
  Slice Out(NodeId v, LabelId l) const { return LabelSlice(out_, v, l); }
  Slice In(NodeId v, LabelId l) const { return LabelSlice(in_, v, l); }

  /// All edges carrying label `l`, graph-wide and sorted by edge id (the
  /// CoreGQL edge-atom and product-graph construction slices).
  Slice EdgesWithLabel(LabelId l) const;

  /// All nodes with node label `l`; empty unless built from a
  /// `PropertyGraph`. Sorted by node id.
  ConstSpan<NodeId> NodesWithLabel(LabelId l) const;
  bool has_node_labels() const { return has_node_labels_; }

  /// Calls `fn(const Hop&)` for every out (or, when `inverse`, in) hop of
  /// `v` whose edge label satisfies `pred`. Single-label predicates touch
  /// only their label slice; negated sets iterate per label *run* and skip
  /// excluded runs wholesale, so no per-edge label test ever runs.
  template <typename Fn>
  void ForEachMatch(NodeId v, const LabelPred& pred, bool inverse,
                    Fn&& fn) const;

  /// Approximate resident size, for memory accounting. For mapped
  /// snapshots this is the mapped extent, not resident pages.
  size_t ApproxBytes() const;

 private:
  /// The delta merger splice-builds snapshots of merged overlay views from
  /// a base snapshot plus the overlay, without the per-node re-sort of the
  /// public constructors (src/graph/delta/merge.cc). The snapshot codec
  /// serializes the views raw and reconstitutes snapshots whose views
  /// point into a mapped or copied file image.
  friend class GraphDeltaMerger;
  friend class storage::SnapshotCodec;
  GraphSnapshot() = default;

  /// Per-node run of same-label hops: hops[begin, end) all carry `label`.
  struct LabelRun {
    LabelId label;
    uint32_t begin;
    uint32_t end;
  };
  static_assert(sizeof(LabelRun) == 12, "LabelRun is serialized raw");

  /// One direction of adjacency, as read by every accessor. Points either
  /// at `owned_` or at a mapped file image.
  struct CsrView {
    ConstSpan<Hop> hops;             // grouped by node, then label, then edge
    ConstSpan<uint32_t> node_begin;  // size num_nodes + 1, extents in hops
    ConstSpan<LabelRun> runs;        // per-node label directories
    ConstSpan<uint32_t> runs_begin;  // size num_nodes + 1, extents in runs
  };

  /// One direction of adjacency, owning flavor (build target).
  struct OwnedCsr {
    std::vector<Hop> hops;
    std::vector<uint32_t> node_begin;
    std::vector<LabelRun> runs;
    std::vector<uint32_t> runs_begin;
  };

  /// Backing arrays for snapshots built in RAM. Null for mapped snapshots,
  /// whose views alias the file image pinned by `pin_`.
  struct Owned {
    OwnedCsr out;
    OwnedCsr in;
    std::vector<Hop> label_edges;
    std::vector<uint32_t> label_begin;
    std::vector<NodeId> nodes_by_label;
    std::vector<uint32_t> nodes_by_label_begin;
  };

  void Build(const EdgeLabeledGraph& g);
  static void BuildDirection(const EdgeLabeledGraph& g, bool inverse,
                             OwnedCsr* csr);
  /// Points every view at `owned_`'s vectors. Must run after any change to
  /// the owned storage (vectors may reallocate while being filled).
  void FinalizeViews();

  Slice NodeSlice(const CsrView& csr, NodeId v) const {
    const Hop* base = csr.hops.data();
    return Slice(base + csr.node_begin[v], base + csr.node_begin[v + 1]);
  }
  Slice LabelSlice(const CsrView& csr, NodeId v, LabelId l) const;

  const EdgeLabeledGraph* g_ = nullptr;
  size_t num_nodes_ = 0;
  size_t num_labels_ = 0;
  CsrView out_;
  CsrView in_;
  ConstSpan<Hop> label_edges_;       // all edges grouped by label
  ConstSpan<uint32_t> label_begin_;  // size num_labels + 1
  bool has_node_labels_ = false;
  /// Flat nodes-by-label index: nodes_by_label_[nodes_by_label_begin_[l]
  /// .. nodes_by_label_begin_[l+1]) are the nodes labeled `l`, sorted by
  /// id. Empty (and begin empty) when !has_node_labels_.
  ConstSpan<NodeId> nodes_by_label_;
  ConstSpan<uint32_t> nodes_by_label_begin_;  // size num_labels + 1

  std::unique_ptr<Owned> owned_;
  /// Keeps a mapped file image alive for view-mode snapshots.
  std::shared_ptr<const void> pin_;
};

}  // namespace gqzoo

// ForEachMatch needs LabelPred's definition; nfa.h includes graph.h, so
// the template lives in a trailer included after both.
#include "src/automata/nfa.h"

namespace gqzoo {

template <typename Fn>
void GraphSnapshot::ForEachMatch(NodeId v, const LabelPred& pred, bool inverse,
                                 Fn&& fn) const {
  const CsrView& csr = inverse ? in_ : out_;
  switch (pred.kind) {
    case LabelPred::Kind::kNone:
      return;
    case LabelPred::Kind::kOne:
      for (const Hop& hop : LabelSlice(csr, v, pred.labels[0])) fn(hop);
      return;
    case LabelPred::Kind::kAny:
      for (const Hop& hop : NodeSlice(csr, v)) fn(hop);
      return;
    case LabelPred::Kind::kNegSet: {
      const Hop* base = csr.hops.data();
      for (uint32_t r = csr.runs_begin[v]; r < csr.runs_begin[v + 1]; ++r) {
        const LabelRun& run = csr.runs[r];
        if (pred.Matches(run.label)) {
          for (uint32_t i = run.begin; i < run.end; ++i) fn(base[i]);
        }
      }
      return;
    }
  }
}

}  // namespace gqzoo

#endif  // GQZOO_GRAPH_CSR_H_
