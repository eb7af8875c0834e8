#include "src/graph/csr.h"

#include <algorithm>

namespace gqzoo {

GraphSnapshot::GraphSnapshot(const EdgeLabeledGraph& g) : g_(&g) {
  Build(g);
  FinalizeViews();
}

GraphSnapshot::GraphSnapshot(const PropertyGraph& g) : g_(&g.skeleton()) {
  Build(g.skeleton());
  has_node_labels_ = true;
  // Flat CSR-style index: counting sort of nodes by label (node ids stay
  // ascending within a label because nodes are visited in id order).
  owned_->nodes_by_label_begin.assign(num_labels_ + 1, 0);
  for (NodeId n = 0; n < g.NumNodes(); ++n) {
    LabelId l = g.NodeLabel(n);
    if (l < num_labels_) ++owned_->nodes_by_label_begin[l + 1];
  }
  for (size_t l = 0; l < num_labels_; ++l) {
    owned_->nodes_by_label_begin[l + 1] += owned_->nodes_by_label_begin[l];
  }
  owned_->nodes_by_label.resize(owned_->nodes_by_label_begin[num_labels_]);
  std::vector<uint32_t> cursor(owned_->nodes_by_label_begin.begin(),
                               owned_->nodes_by_label_begin.end() - 1);
  for (NodeId n = 0; n < g.NumNodes(); ++n) {
    LabelId l = g.NodeLabel(n);
    if (l < num_labels_) owned_->nodes_by_label[cursor[l]++] = n;
  }
  FinalizeViews();
}

void GraphSnapshot::Build(const EdgeLabeledGraph& g) {
  owned_ = std::make_unique<Owned>();
  num_nodes_ = g.NumNodes();
  num_labels_ = g.NumLabels();
  BuildDirection(g, /*inverse=*/false, &owned_->out);
  BuildDirection(g, /*inverse=*/true, &owned_->in);

  // Graph-wide per-label edge lists (counting sort by label; edge ids stay
  // ascending within a label because edges are visited in id order).
  owned_->label_begin.assign(num_labels_ + 1, 0);
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    ++owned_->label_begin[g.EdgeLabel(e) + 1];
  }
  for (size_t l = 0; l < num_labels_; ++l) {
    owned_->label_begin[l + 1] += owned_->label_begin[l];
  }
  owned_->label_edges.resize(g.NumEdges());
  std::vector<uint32_t> cursor(owned_->label_begin.begin(),
                               owned_->label_begin.end() - 1);
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    owned_->label_edges[cursor[g.EdgeLabel(e)]++] = Hop{e, g.Tgt(e)};
  }
}

void GraphSnapshot::BuildDirection(const EdgeLabeledGraph& g, bool inverse,
                                   OwnedCsr* csr) {
  const size_t n = g.NumNodes();
  const size_t m = g.NumEdges();

  // Pass 1: per-node degrees -> node extents.
  csr->node_begin.assign(n + 1, 0);
  for (EdgeId e = 0; e < m; ++e) {
    NodeId at = inverse ? g.Tgt(e) : g.Src(e);
    ++csr->node_begin[at + 1];
  }
  for (size_t v = 0; v < n; ++v) csr->node_begin[v + 1] += csr->node_begin[v];

  // Pass 2: scatter hops into node slices, then sort each slice by
  // (label, edge) so same-label hops form contiguous runs and the overall
  // order is deterministic.
  csr->hops.resize(m);
  std::vector<uint32_t> cursor(csr->node_begin.begin(),
                               csr->node_begin.end() - 1);
  for (EdgeId e = 0; e < m; ++e) {
    NodeId at = inverse ? g.Tgt(e) : g.Src(e);
    NodeId other = inverse ? g.Src(e) : g.Tgt(e);
    csr->hops[cursor[at]++] = Hop{e, other};
  }
  for (size_t v = 0; v < n; ++v) {
    std::sort(csr->hops.begin() + csr->node_begin[v],
              csr->hops.begin() + csr->node_begin[v + 1],
              [&g](const Hop& a, const Hop& b) {
                LabelId la = g.EdgeLabel(a.edge), lb = g.EdgeLabel(b.edge);
                if (la != lb) return la < lb;
                return a.edge < b.edge;
              });
  }

  // Pass 3: label run directories (one entry per distinct label per node).
  csr->runs_begin.assign(n + 1, 0);
  csr->runs.clear();
  for (size_t v = 0; v < n; ++v) {
    uint32_t i = csr->node_begin[v];
    const uint32_t end = csr->node_begin[v + 1];
    while (i < end) {
      LabelId l = g.EdgeLabel(csr->hops[i].edge);
      uint32_t j = i + 1;
      while (j < end && g.EdgeLabel(csr->hops[j].edge) == l) ++j;
      csr->runs.push_back(LabelRun{l, i, j});
      i = j;
    }
    csr->runs_begin[v + 1] = static_cast<uint32_t>(csr->runs.size());
  }
}

void GraphSnapshot::FinalizeViews() {
  out_ = CsrView{owned_->out.hops, owned_->out.node_begin, owned_->out.runs,
                 owned_->out.runs_begin};
  in_ = CsrView{owned_->in.hops, owned_->in.node_begin, owned_->in.runs,
                owned_->in.runs_begin};
  label_edges_ = owned_->label_edges;
  label_begin_ = owned_->label_begin;
  nodes_by_label_ = owned_->nodes_by_label;
  nodes_by_label_begin_ = owned_->nodes_by_label_begin;
}

GraphSnapshot::Slice GraphSnapshot::LabelSlice(const CsrView& csr, NodeId v,
                                               LabelId l) const {
  const LabelRun* first = csr.runs.data() + csr.runs_begin[v];
  const LabelRun* last = csr.runs.data() + csr.runs_begin[v + 1];
  const LabelRun* run = std::lower_bound(
      first, last, l,
      [](const LabelRun& r, LabelId needle) { return r.label < needle; });
  if (run == last || run->label != l) return Slice();
  const Hop* base = csr.hops.data();
  return Slice(base + run->begin, base + run->end);
}

std::vector<EdgeId> GraphSnapshot::OutEdgesById(NodeId v) const {
  std::vector<EdgeId> edges;
  edges.reserve(Out(v).size());
  for (const Hop& hop : Out(v)) edges.push_back(hop.edge);
  std::sort(edges.begin(), edges.end());
  return edges;
}

GraphSnapshot::Slice GraphSnapshot::EdgesWithLabel(LabelId l) const {
  if (l >= num_labels_) return Slice();
  const Hop* base = label_edges_.data();
  return Slice(base + label_begin_[l], base + label_begin_[l + 1]);
}

ConstSpan<NodeId> GraphSnapshot::NodesWithLabel(LabelId l) const {
  if (!has_node_labels_ || l >= num_labels_ ||
      l + 1 >= nodes_by_label_begin_.size()) {
    return ConstSpan<NodeId>();
  }
  return ConstSpan<NodeId>(
      nodes_by_label_.data() + nodes_by_label_begin_[l],
      nodes_by_label_begin_[l + 1] - nodes_by_label_begin_[l]);
}

std::shared_ptr<const GraphSnapshot> PinSnapshot(
    std::shared_ptr<const PropertyGraph> graph) {
  return std::shared_ptr<const GraphSnapshot>(
      new GraphSnapshot(*graph),
      [graph](const GraphSnapshot* s) { delete s; });
}

size_t GraphSnapshot::ApproxBytes() const {
  auto csr_bytes = [](const CsrView& c) {
    return c.hops.size() * sizeof(Hop) +
           c.node_begin.size() * sizeof(uint32_t) +
           c.runs.size() * sizeof(LabelRun) +
           c.runs_begin.size() * sizeof(uint32_t);
  };
  return csr_bytes(out_) + csr_bytes(in_) +
         label_edges_.size() * sizeof(Hop) +
         label_begin_.size() * sizeof(uint32_t) +
         nodes_by_label_.size() * sizeof(NodeId) +
         nodes_by_label_begin_.size() * sizeof(uint32_t);
}

}  // namespace gqzoo
