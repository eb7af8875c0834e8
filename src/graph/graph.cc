#include "src/graph/graph.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace gqzoo {

NodeId EdgeLabeledGraph::AddNode(const std::string& name) {
  assert(overlay_ == nullptr && mapped_ == nullptr &&
         "overlay/mapped graphs are immutable");
  NodeId id = static_cast<NodeId>(node_names_.size());
  std::string effective = name.empty() ? "n" + std::to_string(id) : name;
  assert(node_by_name_.find(effective) == node_by_name_.end() &&
         "duplicate node name");
  node_names_.push_back(effective);
  node_by_name_.emplace(std::move(effective), id);
  return id;
}

EdgeId EdgeLabeledGraph::AddEdge(NodeId src, NodeId tgt,
                                 const std::string& label,
                                 const std::string& name) {
  return AddEdge(src, tgt, labels_.Intern(label), name);
}

EdgeId EdgeLabeledGraph::AddEdge(NodeId src, NodeId tgt, LabelId label,
                                 const std::string& name) {
  assert(overlay_ == nullptr && mapped_ == nullptr &&
         "overlay/mapped graphs are immutable");
  assert(src < NumNodes() && tgt < NumNodes());
  EdgeId id = static_cast<EdgeId>(edges_.size());
  edges_.push_back({src, tgt, label});
  std::string effective = name.empty() ? "e" + std::to_string(id) : name;
  assert(edge_by_name_.find(effective) == edge_by_name_.end() &&
         "duplicate edge name");
  edge_names_.push_back(effective);
  edge_by_name_.emplace(std::move(effective), id);
  return id;
}

std::optional<NodeId> EdgeLabeledGraph::FindNode(
    const std::string& name) const {
  if (overlay_ != nullptr) {
    // Added elements claim a name before the base holder is consulted; a
    // delta only adds a name when its base holder (if any) is removed.
    auto added = overlay_->added_node_by_name.find(name);
    if (added != overlay_->added_node_by_name.end()) return added->second;
    std::optional<NodeId> base_id = overlay_->base->FindNode(name);
    if (!base_id.has_value()) return std::nullopt;
    uint32_t here = overlay_->base_node_to_new[*base_id];
    if (here == kInvalidId) return std::nullopt;
    return here;
  }
  if (mapped_ != nullptr) {
    const MappedSkeleton& m = *mapped_;
    const NodeId* it = std::lower_bound(
        m.nodes_by_name.begin(), m.nodes_by_name.end(),
        std::string_view(name), [this](NodeId id, std::string_view needle) {
          return NodeName(id) < needle;
        });
    if (it == m.nodes_by_name.end() || NodeName(*it) != name) {
      return std::nullopt;
    }
    return *it;
  }
  auto it = node_by_name_.find(name);
  if (it == node_by_name_.end()) return std::nullopt;
  return it->second;
}

std::optional<EdgeId> EdgeLabeledGraph::FindEdge(
    const std::string& name) const {
  if (overlay_ != nullptr) {
    auto added = overlay_->added_edge_by_name.find(name);
    if (added != overlay_->added_edge_by_name.end()) return added->second;
    std::optional<EdgeId> base_id = overlay_->base->FindEdge(name);
    if (!base_id.has_value()) return std::nullopt;
    uint32_t here = overlay_->base_edge_to_new[*base_id];
    if (here == kInvalidId) return std::nullopt;
    return here;
  }
  if (mapped_ != nullptr) {
    const MappedSkeleton& m = *mapped_;
    const EdgeId* it = std::lower_bound(
        m.edges_by_name.begin(), m.edges_by_name.end(),
        std::string_view(name), [this](EdgeId id, std::string_view needle) {
          return EdgeName(id) < needle;
        });
    if (it == m.edges_by_name.end() || EdgeName(*it) != name) {
      return std::nullopt;
    }
    return *it;
  }
  auto it = edge_by_name_.find(name);
  if (it == edge_by_name_.end()) return std::nullopt;
  return it->second;
}

EdgeLabeledGraph EdgeLabeledGraph::MaterializePlain() const {
  if (overlay_ == nullptr && mapped_ == nullptr) return *this;
  EdgeLabeledGraph g;
  // Id-faithful rebuild: labels, nodes, edges interned in id order, so the
  // copy answers every id-based accessor identically to the source.
  for (LabelId l = 0; l < static_cast<LabelId>(NumLabels()); ++l) {
    g.labels_.Intern(std::string(LabelName(l)));
  }
  for (NodeId n = 0; n < static_cast<NodeId>(NumNodes()); ++n) {
    g.AddNode(std::string(NodeName(n)));
  }
  for (EdgeId e = 0; e < static_cast<EdgeId>(NumEdges()); ++e) {
    g.AddEdge(Src(e), Tgt(e), EdgeLabel(e), std::string(EdgeName(e)));
  }
  return g;
}

NodeId PropertyGraph::AddNode(const std::string& name,
                              const std::string& label) {
  NodeId id = skeleton_.AddNode(name);
  node_labels_.push_back(skeleton_.InternLabel(label));
  return id;
}

EdgeId PropertyGraph::AddEdge(NodeId src, NodeId tgt, const std::string& label,
                              const std::string& name) {
  return skeleton_.AddEdge(src, tgt, label, name);
}

void PropertyGraph::SetProperty(ObjectRef o, const std::string& prop,
                                Value v) {
  assert(overlay_ == nullptr && mapped_ == nullptr &&
         "overlay/mapped graphs are immutable");
  PropertyId pid = properties_.Intern(prop);
  props_[{o, pid}] = std::move(v);
}

std::optional<ObjectRef> PropertyGraph::BaseRef(ObjectRef o) const {
  const EdgeLabeledGraph::OverlayNames& names = *skeleton_.overlay_;
  if (o.is_node()) {
    uint32_t old = names.node_origin[o.id];
    if (old >= names.base_nodes) return std::nullopt;
    return ObjectRef::Node(old);
  }
  uint32_t old = names.edge_origin[o.id];
  if (old >= names.base_edges) return std::nullopt;
  return ObjectRef::Edge(old);
}

std::optional<ObjectRef> PropertyGraph::NewRef(ObjectRef base_ref) const {
  const EdgeLabeledGraph::OverlayNames& names = *skeleton_.overlay_;
  uint32_t here = base_ref.is_node() ? names.base_node_to_new[base_ref.id]
                                     : names.base_edge_to_new[base_ref.id];
  if (here == kInvalidId) return std::nullopt;
  return ObjectRef{base_ref.kind, here};
}

ConstSpan<SnapshotPropEntry> PropertyGraph::MappedEntriesOf(
    ObjectRef o) const {
  const MappedProps& m = *mapped_;
  const ConstSpan<uint64_t>& begin =
      o.is_node() ? m.node_prop_begin : m.edge_prop_begin;
  const uint64_t from = begin[o.id];
  const uint64_t to = begin[o.id + 1];
  return ConstSpan<SnapshotPropEntry>(m.entries.data() + from,
                                      static_cast<size_t>(to - from));
}

Value DecodeSnapshotValue(const SnapshotPropEntry& e,
                          const ConstSpan<char>& heap) {
  switch (e.tag) {
    case 0:
      return Value(static_cast<int64_t>(e.payload));
    case 1: {
      double d;
      static_assert(sizeof(d) == sizeof(e.payload));
      std::memcpy(&d, &e.payload, sizeof(d));
      return Value(d);
    }
    case 2: {
      const uint64_t offset = e.payload & 0xFFFFFFFFu;
      const uint64_t length = e.payload >> 32;
      return Value(std::string(heap.data() + offset,
                               static_cast<size_t>(length)));
    }
    default:
      return Value(e.payload != 0);
  }
}

std::optional<Value> PropertyGraph::GetProperty(ObjectRef o,
                                                PropertyId prop) const {
  if (mapped_ != nullptr) {
    ConstSpan<SnapshotPropEntry> entries = MappedEntriesOf(o);
    const SnapshotPropEntry* it = std::lower_bound(
        entries.begin(), entries.end(), prop,
        [](const SnapshotPropEntry& e, PropertyId needle) {
          return e.pid < needle;
        });
    if (it == entries.end() || it->pid != prop) return std::nullopt;
    return DecodeSnapshotValue(*it, mapped_->value_heap);
  }
  auto it = props_.find({o, prop});
  if (it != props_.end()) return it->second;
  if (overlay_ == nullptr) return std::nullopt;
  std::optional<ObjectRef> base_ref = BaseRef(o);
  if (!base_ref.has_value()) return std::nullopt;  // added by the delta
  return overlay_->base->GetProperty(*base_ref, prop);
}

std::optional<Value> PropertyGraph::GetProperty(
    ObjectRef o, const std::string& prop) const {
  std::optional<PropertyId> pid = FindProperty(prop);
  if (!pid.has_value()) return std::nullopt;
  return GetProperty(o, *pid);
}

std::optional<PropertyId> PropertyGraph::FindProperty(
    const std::string& prop) const {
  if (overlay_ == nullptr) return properties_.Find(prop);
  std::optional<PropertyId> base_id = overlay_->base->FindProperty(prop);
  if (base_id.has_value()) return base_id;
  auto it = overlay_->added_prop_by_name.find(prop);
  if (it == overlay_->added_prop_by_name.end()) return std::nullopt;
  return it->second;
}

const std::string& PropertyGraph::PropertyName(PropertyId p) const {
  if (overlay_ == nullptr) return properties_.NameOf(p);
  return p < overlay_->base_props
             ? overlay_->base->PropertyName(p)
             : overlay_->added_props[p - overlay_->base_props];
}

std::vector<std::pair<PropertyId, Value>> PropertyGraph::PropertiesOf(
    ObjectRef o) const {
  std::vector<std::pair<PropertyId, Value>> result;
  if (mapped_ != nullptr) {
    for (const SnapshotPropEntry& e : MappedEntriesOf(o)) {
      result.emplace_back(e.pid, DecodeSnapshotValue(e, mapped_->value_heap));
    }
    return result;  // file entries are already sorted by pid
  }
  for (const auto& [key, value] : props_) {
    if (key.first == o) result.emplace_back(key.second, value);
  }
  if (overlay_ != nullptr) {
    std::optional<ObjectRef> base_ref = BaseRef(o);
    if (base_ref.has_value()) {
      for (auto& [pid, value] : overlay_->base->PropertiesOf(*base_ref)) {
        if (props_.count({o, pid}) == 0) {
          result.emplace_back(pid, std::move(value));
        }
      }
    }
  }
  std::sort(result.begin(), result.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return result;
}

void PropertyGraph::ForEachProperty(
    const std::function<void(ObjectRef, PropertyId, const Value&)>& fn) const {
  if (mapped_ != nullptr) {
    for (NodeId n = 0; n < static_cast<NodeId>(NumNodes()); ++n) {
      for (const SnapshotPropEntry& e : MappedEntriesOf(ObjectRef::Node(n))) {
        fn(ObjectRef::Node(n), e.pid,
           DecodeSnapshotValue(e, mapped_->value_heap));
      }
    }
    for (EdgeId ed = 0; ed < static_cast<EdgeId>(NumEdges()); ++ed) {
      for (const SnapshotPropEntry& e : MappedEntriesOf(ObjectRef::Edge(ed))) {
        fn(ObjectRef::Edge(ed), e.pid,
           DecodeSnapshotValue(e, mapped_->value_heap));
      }
    }
    return;
  }
  for (const auto& [key, value] : props_) fn(key.first, key.second, value);
  if (overlay_ == nullptr) return;
  overlay_->base->ForEachProperty(
      [&](ObjectRef base_ref, PropertyId p, const Value& v) {
        std::optional<ObjectRef> here = NewRef(base_ref);
        if (!here.has_value()) return;              // removed object
        if (props_.count({*here, p}) != 0) return;  // overridden
        fn(*here, p, v);
      });
}

}  // namespace gqzoo
