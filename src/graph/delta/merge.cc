#include "src/graph/delta/merge.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace gqzoo {

/// New-space id assignment shared by Merge and Materialize: surviving base
/// elements first, in base-id order, then alive added elements in insertion
/// order. Added new ids therefore always exceed surviving base new ids, and
/// both mappings are monotone — the splice below leans on that.
struct GraphDeltaMerger::IdMap {
  std::vector<uint32_t> node_origin;       // new id -> old-space id
  std::vector<uint32_t> edge_origin;
  std::vector<uint32_t> base_node_to_new;  // base id -> new id / kInvalidId
  std::vector<uint32_t> base_edge_to_new;
  std::vector<uint32_t> added_node_to_new;  // added ordinal -> new id
  std::vector<uint32_t> added_edge_to_new;
};

GraphDeltaMerger::IdMap GraphDeltaMerger::BuildIdMap(
    const DeltaOverlay& overlay) {
  IdMap ids;
  const uint32_t bn = overlay.base_nodes_;
  const uint32_t be = overlay.base_edges_;

  ids.base_node_to_new.assign(bn, kInvalidId);
  ids.node_origin.reserve(bn - overlay.removed_base_nodes_ +
                          overlay.alive_added_nodes_);
  for (uint32_t b = 0; b < bn; ++b) {
    if (!overlay.NodeAlive(b)) continue;
    ids.base_node_to_new[b] = static_cast<uint32_t>(ids.node_origin.size());
    ids.node_origin.push_back(b);
  }
  ids.added_node_to_new.assign(overlay.added_nodes_.size(), kInvalidId);
  for (size_t i = 0; i < overlay.added_nodes_.size(); ++i) {
    if (!overlay.added_nodes_[i].alive) continue;
    ids.added_node_to_new[i] = static_cast<uint32_t>(ids.node_origin.size());
    ids.node_origin.push_back(bn + static_cast<uint32_t>(i));
  }

  ids.base_edge_to_new.assign(be, kInvalidId);
  ids.edge_origin.reserve(be - overlay.removed_base_edges_ +
                          overlay.alive_added_edges_);
  for (uint32_t b = 0; b < be; ++b) {
    if (!overlay.EdgeAlive(b)) continue;
    ids.base_edge_to_new[b] = static_cast<uint32_t>(ids.edge_origin.size());
    ids.edge_origin.push_back(b);
  }
  ids.added_edge_to_new.assign(overlay.added_edges_.size(), kInvalidId);
  for (size_t i = 0; i < overlay.added_edges_.size(); ++i) {
    if (!overlay.added_edges_[i].alive) continue;
    ids.added_edge_to_new[i] = static_cast<uint32_t>(ids.edge_origin.size());
    ids.edge_origin.push_back(be + static_cast<uint32_t>(i));
  }
  return ids;
}

MergedGraph GraphDeltaMerger::Merge(const DeltaOverlay& overlay) {
  const std::shared_ptr<const PropertyGraph>& base_sp = overlay.base();
  const GraphSnapshot& base_snapshot = *overlay.base_snapshot_;
  const PropertyGraph& base = *base_sp;
  const EdgeLabeledGraph& bs = base.skeleton();
  const uint32_t bn = overlay.base_nodes_;
  const uint32_t be = overlay.base_edges_;
  const uint32_t bl = overlay.base_labels_;
  assert(base_snapshot.NumNodes() == bn && base_snapshot.NumEdges() == be);

  IdMap ids = BuildIdMap(overlay);
  const size_t n_new = ids.node_origin.size();
  const size_t m_new = ids.edge_origin.size();
  const size_t num_labels = bl + overlay.added_labels_.size();

  auto node_new = [&](uint32_t old) {
    return old < bn ? ids.base_node_to_new[old]
                    : ids.added_node_to_new[old - bn];
  };
  auto edge_new = [&](uint32_t old) {
    return old < be ? ids.base_edge_to_new[old]
                    : ids.added_edge_to_new[old - be];
  };

  auto merged = std::make_shared<PropertyGraph>();
  PropertyGraph& g = *merged;

  // The edge table, fully materialized in the merged id space.
  g.skeleton_.edges_.reserve(m_new);
  for (EdgeId e = 0; e < m_new; ++e) {
    uint32_t old = ids.edge_origin[e];
    uint32_t src_old, tgt_old;
    LabelId label;
    if (old < be) {
      src_old = bs.Src(old);
      tgt_old = bs.Tgt(old);
      label = bs.EdgeLabel(old);
    } else {
      const DeltaOverlay::AddedEdge& ae = overlay.added_edges_[old - be];
      src_old = ae.src;
      tgt_old = ae.tgt;
      label = ae.label;
    }
    g.skeleton_.edges_.push_back(
        {node_new(src_old), node_new(tgt_old), label});
  }
  g.node_labels_.resize(n_new);
  for (NodeId v = 0; v < static_cast<NodeId>(n_new); ++v) {
    g.node_labels_[v] = overlay.NodeLabelOf(ids.node_origin[v]);
  }

  // Property overrides (and added-object properties) keyed in new space;
  // everything else falls through to the base map at read time.
  auto props = std::make_shared<PropertyGraph::OverlayProps>();
  props->base = base_sp;
  props->base_props = overlay.base_props_;
  props->added_props = overlay.added_props_;
  props->added_prop_by_name = overlay.added_prop_by_name_;
  for (const auto& [key, value] : overlay.prop_overrides_) {
    bool on_edge = (key >> 63) != 0;
    uint32_t old = static_cast<uint32_t>((key >> 31) & 0xFFFFFFFFu);
    PropertyId p = static_cast<PropertyId>(key & 0x7FFFFFFFu);
    if (on_edge) {
      if (!overlay.EdgeAlive(old)) continue;
      g.props_[{ObjectRef::Edge(edge_new(old)), p}] = value;
    } else {
      if (!overlay.NodeAlive(old)) continue;
      g.props_[{ObjectRef::Node(node_new(old)), p}] = value;
    }
  }

  // --- CSR splice: per-node two-pointer merge of the (filtered,
  // translated) base slice with the node's sorted added hops. The base
  // slice is already (label, edge)-sorted, translation is monotone, and
  // added new ids exceed every surviving base id — so equal labels need no
  // tie-break and no global re-sort happens anywhere.
  auto snap_owner = std::unique_ptr<GraphSnapshot>(new GraphSnapshot());
  GraphSnapshot& snap = *snap_owner;
  snap.g_ = &g.skeleton_;
  snap.num_nodes_ = n_new;
  snap.num_labels_ = num_labels;
  snap.owned_ = std::make_unique<GraphSnapshot::Owned>();

  auto splice_direction = [&](bool inverse, GraphSnapshot::OwnedCsr* csr) {
    csr->node_begin.assign(n_new + 1, 0);
    csr->runs_begin.assign(n_new + 1, 0);
    csr->hops.clear();
    csr->hops.reserve(m_new);
    csr->runs.clear();
    struct LabeledHop {
      LabelId label;
      GraphSnapshot::Hop hop;
    };
    std::vector<LabeledHop> added;
    const std::unordered_map<uint32_t, std::vector<uint32_t>>& added_adj =
        inverse ? overlay.added_in_ : overlay.added_out_;
    for (NodeId v = 0; v < static_cast<NodeId>(n_new); ++v) {
      uint32_t old = ids.node_origin[v];
      const uint32_t hops_start = static_cast<uint32_t>(csr->hops.size());
      added.clear();
      auto adj_it = added_adj.find(old);
      if (adj_it != added_adj.end()) {
        for (uint32_t ord : adj_it->second) {
          const DeltaOverlay::AddedEdge& ae = overlay.added_edges_[ord];
          if (!ae.alive) continue;
          uint32_t other_old = inverse ? ae.src : ae.tgt;
          added.push_back({ae.label,
                           {ids.added_edge_to_new[ord], node_new(other_old)}});
        }
        std::sort(added.begin(), added.end(),
                  [](const LabeledHop& a, const LabeledHop& b) {
                    if (a.label != b.label) return a.label < b.label;
                    return a.hop.edge < b.hop.edge;
                  });
      }
      size_t ai = 0;
      if (old < bn) {
        GraphSnapshot::Slice slice =
            inverse ? base_snapshot.In(old) : base_snapshot.Out(old);
        for (const GraphSnapshot::Hop& h : slice) {
          if (!overlay.EdgeAlive(h.edge)) continue;
          LabelId label = bs.EdgeLabel(h.edge);
          while (ai < added.size() && added[ai].label < label) {
            csr->hops.push_back(added[ai++].hop);
          }
          csr->hops.push_back(
              {ids.base_edge_to_new[h.edge], ids.base_node_to_new[h.node]});
        }
      }
      while (ai < added.size()) csr->hops.push_back(added[ai++].hop);
      const uint32_t hops_end = static_cast<uint32_t>(csr->hops.size());
      csr->node_begin[v + 1] = hops_end;
      uint32_t i = hops_start;
      while (i < hops_end) {
        LabelId label = g.skeleton_.edges_[csr->hops[i].edge].label;
        uint32_t j = i + 1;
        while (j < hops_end &&
               g.skeleton_.edges_[csr->hops[j].edge].label == label) {
          ++j;
        }
        csr->runs.push_back({label, i, j});
        i = j;
      }
      csr->runs_begin[v + 1] = static_cast<uint32_t>(csr->runs.size());
    }
  };
  splice_direction(/*inverse=*/false, &snap.owned_->out);
  splice_direction(/*inverse=*/true, &snap.owned_->in);

  // Graph-wide per-label edge lists: surviving base slice (translated, edge
  // ids stay ascending), then added edges of the label in ordinal order
  // (their new ids are larger and also ascending).
  std::vector<std::vector<GraphSnapshot::Hop>> added_by_label(num_labels);
  for (size_t ord = 0; ord < overlay.added_edges_.size(); ++ord) {
    const DeltaOverlay::AddedEdge& ae = overlay.added_edges_[ord];
    if (!ae.alive) continue;
    added_by_label[ae.label].push_back(
        {ids.added_edge_to_new[ord], node_new(ae.tgt)});
  }
  snap.owned_->label_begin.assign(num_labels + 1, 0);
  snap.owned_->label_edges.clear();
  snap.owned_->label_edges.reserve(m_new);
  for (LabelId l = 0; l < static_cast<LabelId>(num_labels); ++l) {
    if (l < bl) {
      for (const GraphSnapshot::Hop& h : base_snapshot.EdgesWithLabel(l)) {
        if (!overlay.EdgeAlive(h.edge)) continue;
        snap.owned_->label_edges.push_back(
            {ids.base_edge_to_new[h.edge], ids.base_node_to_new[h.node]});
      }
    }
    for (const GraphSnapshot::Hop& h : added_by_label[l]) {
      snap.owned_->label_edges.push_back(h);
    }
    snap.owned_->label_begin[l + 1] =
        static_cast<uint32_t>(snap.owned_->label_edges.size());
  }

  // Node-label index (flat CSR layout): filter the base list (a node
  // leaves it when removed or relabeled), then merge-insert relabeled and
  // added nodes, appending each label's run to the flat array.
  snap.has_node_labels_ = true;
  snap.owned_->nodes_by_label_begin.assign(num_labels + 1, 0);
  snap.owned_->nodes_by_label.clear();
  std::vector<std::vector<NodeId>> inserts(num_labels);
  for (const auto& [b, lab] : overlay.node_label_override_) {
    if (!overlay.NodeAlive(b)) continue;
    if (base.NodeLabel(b) == lab) continue;  // overridden back to base label
    inserts[lab].push_back(ids.base_node_to_new[b]);
  }
  for (size_t i = 0; i < overlay.added_nodes_.size(); ++i) {
    const DeltaOverlay::AddedNode& an = overlay.added_nodes_[i];
    if (an.alive) inserts[an.label].push_back(ids.added_node_to_new[i]);
  }
  std::vector<NodeId> kept;
  for (LabelId l = 0; l < static_cast<LabelId>(num_labels); ++l) {
    kept.clear();
    if (l < bl) {
      for (NodeId b : base_snapshot.NodesWithLabel(l)) {
        if (overlay.NodeAlive(b) && overlay.NodeLabelOf(b) == l) {
          kept.push_back(ids.base_node_to_new[b]);
        }
      }
    }
    std::sort(inserts[l].begin(), inserts[l].end());
    const size_t at = snap.owned_->nodes_by_label.size();
    snap.owned_->nodes_by_label.resize(at + kept.size() + inserts[l].size());
    std::merge(kept.begin(), kept.end(), inserts[l].begin(), inserts[l].end(),
               snap.owned_->nodes_by_label.begin() + at);
    snap.owned_->nodes_by_label_begin[l + 1] =
        static_cast<uint32_t>(snap.owned_->nodes_by_label.size());
  }
  snap.FinalizeViews();

  // Borrowed-name tables — filled last so the id maps can be moved in.
  auto names = std::make_shared<EdgeLabeledGraph::OverlayNames>();
  names->base_owner = base_sp;
  names->base = &bs;
  names->base_nodes = bn;
  names->base_edges = be;
  names->base_labels = bl;
  names->added_node_names.reserve(overlay.added_nodes_.size());
  for (size_t i = 0; i < overlay.added_nodes_.size(); ++i) {
    const DeltaOverlay::AddedNode& an = overlay.added_nodes_[i];
    names->added_node_names.push_back(an.name);
    if (an.alive) {
      names->added_node_by_name.emplace(an.name, ids.added_node_to_new[i]);
    }
  }
  names->added_edge_names.reserve(overlay.added_edges_.size());
  for (size_t i = 0; i < overlay.added_edges_.size(); ++i) {
    const DeltaOverlay::AddedEdge& ae = overlay.added_edges_[i];
    names->added_edge_names.push_back(ae.name);
    if (ae.alive) {
      names->added_edge_by_name.emplace(ae.name, ids.added_edge_to_new[i]);
    }
  }
  names->added_labels = overlay.added_labels_;
  names->added_label_by_name = overlay.added_label_by_name_;
  names->node_origin = std::move(ids.node_origin);
  names->edge_origin = std::move(ids.edge_origin);
  names->base_node_to_new = std::move(ids.base_node_to_new);
  names->base_edge_to_new = std::move(ids.base_edge_to_new);
  g.skeleton_.overlay_ = std::move(names);
  g.overlay_ = std::move(props);

  MergedGraph out;
  out.graph = merged;
  // The snapshot pins the merged view, which pins the base generation.
  out.snapshot = std::shared_ptr<const GraphSnapshot>(
      snap_owner.release(), [merged](const GraphSnapshot* s) { delete s; });
  out.touched_labels.assign(overlay.touched_label_ids_.begin(),
                            overlay.touched_label_ids_.end());
  std::sort(out.touched_labels.begin(), out.touched_labels.end());
  return out;
}

PropertyGraph GraphDeltaMerger::Materialize(const DeltaOverlay& overlay) {
  const PropertyGraph& base = *overlay.base();
  const EdgeLabeledGraph& bs = base.skeleton();
  const uint32_t bn = overlay.base_nodes_;
  const uint32_t be = overlay.base_edges_;
  const uint32_t bl = overlay.base_labels_;
  const uint32_t bp = overlay.base_props_;

  PropertyGraph g;
  // Pre-seed the interners in id order: merged views, the compacted base
  // they fold into, and from-scratch replays all share one label/property
  // id space, so cached plans survive compaction and the overlay's
  // old-space ids keep their meaning across generations.
  for (LabelId l = 0; l < bl; ++l) g.InternLabel(bs.LabelName(l));
  for (const std::string& name : overlay.added_labels_) g.InternLabel(name);
  for (PropertyId p = 0; p < bp; ++p) g.InternProperty(base.PropertyName(p));
  for (const std::string& name : overlay.added_props_) g.InternProperty(name);

  IdMap ids = BuildIdMap(overlay);
  auto node_new = [&](uint32_t old) {
    return old < bn ? ids.base_node_to_new[old]
                    : ids.added_node_to_new[old - bn];
  };
  auto edge_new = [&](uint32_t old) {
    return old < be ? ids.base_edge_to_new[old]
                    : ids.added_edge_to_new[old - be];
  };

  for (uint32_t old : ids.node_origin) {
    std::string name = old < bn ? std::string(bs.NodeName(old))
                                : overlay.added_nodes_[old - bn].name;
    g.AddNode(name, overlay.LabelNameOf(overlay.NodeLabelOf(old)));
  }
  for (uint32_t old : ids.edge_origin) {
    uint32_t src_old, tgt_old;
    if (old < be) {
      src_old = bs.Src(old);
      tgt_old = bs.Tgt(old);
    } else {
      src_old = overlay.added_edges_[old - be].src;
      tgt_old = overlay.added_edges_[old - be].tgt;
    }
    std::string name = old < be ? std::string(bs.EdgeName(old))
                                : overlay.added_edges_[old - be].name;
    g.AddEdge(node_new(src_old), node_new(tgt_old),
              overlay.LabelNameOf(overlay.EdgeLabelOf(old)), name);
  }

  // Base properties of surviving objects, unless overridden; then the
  // overlay's overrides. Insertion order does not matter — properties
  // render sorted by id, and the ids were pre-seeded above.
  base.ForEachProperty([&](ObjectRef o, PropertyId p, const Value& v) {
    if (o.is_node() ? !overlay.NodeAlive(o.id) : !overlay.EdgeAlive(o.id)) {
      return;
    }
    if (overlay.prop_overrides_.count(
            DeltaOverlay::PropKey(o.is_edge(), o.id, p)) != 0) {
      return;
    }
    ObjectRef here = o.is_node() ? ObjectRef::Node(node_new(o.id))
                                 : ObjectRef::Edge(edge_new(o.id));
    g.SetProperty(here, base.PropertyName(p), v);
  });
  for (const auto& [key, value] : overlay.prop_overrides_) {
    bool on_edge = (key >> 63) != 0;
    uint32_t old = static_cast<uint32_t>((key >> 31) & 0xFFFFFFFFu);
    PropertyId p = static_cast<PropertyId>(key & 0x7FFFFFFFu);
    if (on_edge ? !overlay.EdgeAlive(old) : !overlay.NodeAlive(old)) continue;
    const std::string& pname =
        p < bp ? base.PropertyName(p) : overlay.added_props_[p - bp];
    ObjectRef here = on_edge ? ObjectRef::Edge(edge_new(old))
                             : ObjectRef::Node(node_new(old));
    g.SetProperty(here, pname, value);
  }
  return g;
}

PropertyGraph GraphDeltaMerger::Replay(const PropertyGraph& base,
                                       const GraphSnapshot& base_snapshot,
                                       const std::vector<MutationOp>& log) {
  // Non-owning alias: the scratch overlay borrows `base` for the duration
  // of this call only.
  std::shared_ptr<const PropertyGraph> alias(std::shared_ptr<const void>(),
                                             &base);
  DeltaOverlay scratch(std::move(alias), base_snapshot);
  MutationBatch batch;
  batch.ops = log;
  Result<size_t> applied = scratch.Apply(batch);
  (void)applied;
  assert(applied.ok() && "replaying a validated op log cannot fail");
  return Materialize(scratch);
}

}  // namespace gqzoo
