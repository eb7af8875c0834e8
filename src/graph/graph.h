#ifndef GQZOO_GRAPH_GRAPH_H_
#define GQZOO_GRAPH_GRAPH_H_

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/util/interner.h"
#include "src/util/result.h"
#include "src/util/span.h"
#include "src/util/value.h"

namespace gqzoo {

using NodeId = uint32_t;
using EdgeId = uint32_t;
using LabelId = uint32_t;
using PropertyId = uint32_t;

inline constexpr uint32_t kInvalidId = UINT32_MAX;

class GraphDeltaMerger;
class PropertyGraph;

namespace storage {
class SnapshotCodec;  // storage/snapshot_format.h: serializes/maps graphs
}

/// Whether a path object is a node or an edge ("objects" in the paper's
/// terminology, "elements" in GQL/SQL-PGQ).
enum class ObjectKind : uint8_t { kNode = 0, kEdge = 1 };

/// A reference to a node or edge of some graph.
struct ObjectRef {
  ObjectKind kind;
  uint32_t id;

  static ObjectRef Node(NodeId n) { return {ObjectKind::kNode, n}; }
  static ObjectRef Edge(EdgeId e) { return {ObjectKind::kEdge, e}; }

  bool is_node() const { return kind == ObjectKind::kNode; }
  bool is_edge() const { return kind == ObjectKind::kEdge; }

  bool operator==(const ObjectRef& o) const {
    return kind == o.kind && id == o.id;
  }
  bool operator!=(const ObjectRef& o) const { return !(*this == o); }
  bool operator<(const ObjectRef& o) const {
    if (kind != o.kind) return kind < o.kind;
    return id < o.id;
  }
};

struct ObjectRefHash {
  size_t operator()(const ObjectRef& o) const {
    return HashCombine(static_cast<size_t>(o.kind), o.id);
  }
};

/// One property assignment in the on-disk snapshot format, sorted by
/// (object id, pid) within each object class. Mapped graphs answer
/// property lookups by binary-searching these entries in place.
struct SnapshotPropEntry {
  uint32_t pid;
  uint32_t tag;     // Value alternative: 0 int64, 1 double, 2 string, 3 bool
  uint64_t payload;  // raw bits; string: low 32 offset, high 32 length
};
static_assert(sizeof(SnapshotPropEntry) == 16, "serialized raw");

/// An edge-labeled graph (Definition 4): `(N, E, src, tgt, λ)` with edge
/// identity, so two parallel edges with the same label are distinct (the
/// paper's t2 and t5 in Figure 2).
///
/// Nodes and edges additionally carry display names (e.g. "a1", "t1") so
/// query answers can be printed like the paper's examples; names play no
/// semantic role.
///
/// A graph lives in one of three storage modes:
///  * *plain* — built by AddNode/AddEdge, owns every array (mutable);
///  * *overlay* — a merged delta view (src/graph/delta): numeric hot-path
///    arrays are materialized in the merged id space, strings and name→id
///    maps are borrowed from the immutable base generation through
///    translation tables;
///  * *mapped* — opened from the on-disk snapshot format
///    (storage/snapshot_format.h): edges and name tables are read in place
///    from a memory-mapped file; label text is interned eagerly (small).
/// Overlay and mapped graphs are immutable; the mutators assert.
///
/// The graph keeps no adjacency of its own: the edge table is the only
/// record of incidence, and traversals read the CSR `GraphSnapshot`
/// (src/graph/csr.h) built from it, whose per-node slices list hops by
/// (label, edge id).
class EdgeLabeledGraph {
 public:
  struct EdgeData {
    NodeId src;
    NodeId tgt;
    LabelId label;
  };
  static_assert(sizeof(EdgeData) == 12, "serialized raw");

  EdgeLabeledGraph() = default;

  /// Adds a node named `name` (auto-generated "n<k>" when empty).
  /// Names must be unique within the graph.
  NodeId AddNode(const std::string& name = "");

  /// Adds an edge from `src` to `tgt` with label `label` and optional
  /// display name (auto-generated "e<k>" when empty).
  EdgeId AddEdge(NodeId src, NodeId tgt, const std::string& label,
                 const std::string& name = "");
  EdgeId AddEdge(NodeId src, NodeId tgt, LabelId label,
                 const std::string& name = "");

  size_t NumNodes() const {
    if (mapped_ != nullptr) return mapped_->num_nodes;
    if (overlay_ != nullptr) return overlay_->node_origin.size();
    return node_names_.size();
  }
  size_t NumEdges() const {
    return mapped_ != nullptr ? mapped_->edges.size() : edges_.size();
  }

  NodeId Src(EdgeId e) const { return EdgeAt(e).src; }
  NodeId Tgt(EdgeId e) const { return EdgeAt(e).tgt; }
  LabelId EdgeLabel(EdgeId e) const { return EdgeAt(e).label; }

  /// Label interning. Labels are shared between this graph's edges and, when
  /// this graph is the skeleton of a `PropertyGraph`, its node labels too.
  LabelId InternLabel(const std::string& label) {
    assert(overlay_ == nullptr && mapped_ == nullptr &&
           "overlay/mapped graphs are immutable");
    return labels_.Intern(label);
  }
  std::optional<LabelId> FindLabel(const std::string& label) const;
  const std::string& LabelName(LabelId l) const;
  size_t NumLabels() const {
    if (overlay_ == nullptr) return labels_.size();
    return overlay_->base_labels + overlay_->added_labels.size();
  }

  /// Display names. Plain/overlay graphs return views of owned strings;
  /// mapped graphs return views straight into the mapped name heap —
  /// valid as long as the graph (which pins the mapping) is.
  std::string_view NodeName(NodeId n) const;
  std::string_view EdgeName(EdgeId e) const;
  std::optional<NodeId> FindNode(const std::string& name) const;
  std::optional<EdgeId> FindEdge(const std::string& name) const;

  /// Name of an object ("a1" / "t3"), for printing.
  std::string_view ObjectName(ObjectRef o) const {
    return o.is_node() ? NodeName(o.id) : EdgeName(o.id);
  }

  /// True when this graph is a merged delta view over a base generation.
  bool is_overlay() const { return overlay_ != nullptr; }
  /// True when this graph reads from a mapped snapshot file.
  bool is_mapped() const { return mapped_ != nullptr; }

  /// A plain, mutable, id-faithful copy of this graph (labels, nodes,
  /// edges interned in id order). The working-copy escape hatch for code
  /// that mutates a skeleton (regular queries) when the source is an
  /// immutable overlay or mapped graph. Plain graphs copy directly.
  EdgeLabeledGraph MaterializePlain() const;

 private:
  friend class GraphDeltaMerger;
  friend class PropertyGraph;
  friend class storage::SnapshotCodec;

  /// Borrowed-string tables of an overlay view. Ids below the `base_*`
  /// counts are base ids ("old space"); a merged ("new space") id maps to
  /// its old-space origin through `node_origin`/`edge_origin`, and base
  /// ids map forward through `base_*_to_new` (kInvalidId = removed).
  struct OverlayNames {
    std::shared_ptr<const void> base_owner;  // pins the base generation
    const EdgeLabeledGraph* base = nullptr;
    uint32_t base_nodes = 0;
    uint32_t base_edges = 0;
    uint32_t base_labels = 0;
    std::vector<uint32_t> node_origin;       // new id -> old-space id
    std::vector<uint32_t> edge_origin;
    std::vector<uint32_t> base_node_to_new;  // base id -> new id
    std::vector<uint32_t> base_edge_to_new;
    std::vector<std::string> added_node_names;  // by added ordinal
    std::vector<std::string> added_edge_names;
    std::unordered_map<std::string, NodeId> added_node_by_name;  // -> new id
    std::unordered_map<std::string, EdgeId> added_edge_by_name;
    std::vector<std::string> added_labels;  // ids base_labels + index
    std::unordered_map<std::string, LabelId> added_label_by_name;
  };

  /// In-place views of a mapped snapshot file (storage/snapshot_format.h).
  struct MappedSkeleton {
    std::shared_ptr<const void> pin;  // the mapped file image
    size_t num_nodes = 0;
    ConstSpan<EdgeData> edges;
    ConstSpan<uint64_t> node_name_offsets;  // size num_nodes + 1
    ConstSpan<char> node_name_heap;
    ConstSpan<NodeId> nodes_by_name;  // node ids sorted by display name
    ConstSpan<uint64_t> edge_name_offsets;  // size num_edges + 1
    ConstSpan<char> edge_name_heap;
    ConstSpan<EdgeId> edges_by_name;  // edge ids sorted by display name
  };

  const EdgeData& EdgeAt(EdgeId e) const {
    return mapped_ != nullptr ? mapped_->edges[e] : edges_[e];
  }
  static std::string_view HeapName(const ConstSpan<uint64_t>& offsets,
                                   const ConstSpan<char>& heap, uint32_t i) {
    return std::string_view(heap.data() + offsets[i],
                            static_cast<size_t>(offsets[i + 1] - offsets[i]));
  }

  std::vector<EdgeData> edges_;
  std::vector<std::string> node_names_;
  std::vector<std::string> edge_names_;
  std::unordered_map<std::string, NodeId> node_by_name_;
  std::unordered_map<std::string, EdgeId> edge_by_name_;
  Interner labels_;
  std::shared_ptr<const OverlayNames> overlay_;  // null for plain graphs
  std::shared_ptr<const MappedSkeleton> mapped_;  // null unless mapped
};

inline std::string_view EdgeLabeledGraph::NodeName(NodeId n) const {
  if (overlay_ != nullptr) {
    uint32_t old = overlay_->node_origin[n];
    return old < overlay_->base_nodes
               ? overlay_->base->NodeName(old)
               : std::string_view(
                     overlay_->added_node_names[old - overlay_->base_nodes]);
  }
  if (mapped_ != nullptr) {
    return HeapName(mapped_->node_name_offsets, mapped_->node_name_heap, n);
  }
  return node_names_[n];
}

inline std::string_view EdgeLabeledGraph::EdgeName(EdgeId e) const {
  if (overlay_ != nullptr) {
    uint32_t old = overlay_->edge_origin[e];
    return old < overlay_->base_edges
               ? overlay_->base->EdgeName(old)
               : std::string_view(
                     overlay_->added_edge_names[old - overlay_->base_edges]);
  }
  if (mapped_ != nullptr) {
    return HeapName(mapped_->edge_name_offsets, mapped_->edge_name_heap, e);
  }
  return edge_names_[e];
}

inline const std::string& EdgeLabeledGraph::LabelName(LabelId l) const {
  if (overlay_ == nullptr) return labels_.NameOf(l);
  return l < overlay_->base_labels
             ? overlay_->base->LabelName(l)
             : overlay_->added_labels[l - overlay_->base_labels];
}

inline std::optional<LabelId> EdgeLabeledGraph::FindLabel(
    const std::string& label) const {
  if (overlay_ == nullptr) return labels_.Find(label);
  std::optional<LabelId> base_id = overlay_->base->FindLabel(label);
  if (base_id.has_value()) return base_id;
  auto it = overlay_->added_label_by_name.find(label);
  if (it == overlay_->added_label_by_name.end()) return std::nullopt;
  return it->second;
}

/// A labeled property graph (Definition 6): extends the edge-labeled model
/// with a label on every node and a partial property map
/// `ρ : (N ∪ E) × Properties → Values`.
///
/// Per Remark 7 each element has exactly one label. The underlying
/// edge-labeled graph (`skeleton()`) is the restriction `λ|_E` of Section 2.
///
/// Like the skeleton, a property graph is plain, an overlay view, or
/// mapped: overlay property lookups consult the view's own (small)
/// override map first, then fall through to the base generation's map via
/// the skeleton's id-translation tables; mapped lookups binary-search the
/// file's sorted property entries in place.
class PropertyGraph {
 public:
  PropertyGraph() = default;

  NodeId AddNode(const std::string& name, const std::string& label);
  EdgeId AddEdge(NodeId src, NodeId tgt, const std::string& label,
                 const std::string& name = "");

  void SetProperty(ObjectRef o, const std::string& prop, Value v);

  /// `ρ(o, prop)`; nullopt when the partial function is undefined here.
  std::optional<Value> GetProperty(ObjectRef o, PropertyId prop) const;
  std::optional<Value> GetProperty(ObjectRef o, const std::string& prop) const;

  LabelId NodeLabel(NodeId n) const {
    return mapped_ != nullptr ? mapped_->node_labels[n] : node_labels_[n];
  }
  LabelId EdgeLabel(EdgeId e) const { return skeleton_.EdgeLabel(e); }
  LabelId ObjectLabel(ObjectRef o) const {
    return o.is_node() ? NodeLabel(o.id) : EdgeLabel(o.id);
  }

  PropertyId InternProperty(const std::string& prop) {
    assert(overlay_ == nullptr && mapped_ == nullptr &&
           "overlay/mapped graphs are immutable");
    return properties_.Intern(prop);
  }
  std::optional<PropertyId> FindProperty(const std::string& prop) const;
  const std::string& PropertyName(PropertyId p) const;
  size_t NumProperties() const {
    if (overlay_ == nullptr) return properties_.size();
    return overlay_->base_props + overlay_->added_props.size();
  }

  /// The edge-labeled graph `(N, E, src, tgt, λ|_E)`.
  const EdgeLabeledGraph& skeleton() const { return skeleton_; }
  EdgeLabeledGraph& mutable_skeleton() { return skeleton_; }

  // Convenience forwarders.
  size_t NumNodes() const { return skeleton_.NumNodes(); }
  size_t NumEdges() const { return skeleton_.NumEdges(); }
  NodeId Src(EdgeId e) const { return skeleton_.Src(e); }
  NodeId Tgt(EdgeId e) const { return skeleton_.Tgt(e); }
  std::optional<NodeId> FindNode(const std::string& name) const {
    return skeleton_.FindNode(name);
  }
  std::optional<EdgeId> FindEdge(const std::string& name) const {
    return skeleton_.FindEdge(name);
  }
  LabelId InternLabel(const std::string& label) {
    return skeleton_.InternLabel(label);
  }
  std::optional<LabelId> FindLabel(const std::string& label) const {
    return skeleton_.FindLabel(label);
  }
  const std::string& LabelName(LabelId l) const {
    return skeleton_.LabelName(l);
  }
  std::string_view NodeName(NodeId n) const { return skeleton_.NodeName(n); }
  std::string_view EdgeName(EdgeId e) const { return skeleton_.EdgeName(e); }
  std::string_view ObjectName(ObjectRef o) const {
    return skeleton_.ObjectName(o);
  }

  bool is_overlay() const { return overlay_ != nullptr; }
  bool is_mapped() const { return mapped_ != nullptr; }

  /// All properties defined on `o`, for printing/serialization. Sorted by
  /// property id.
  std::vector<std::pair<PropertyId, Value>> PropertiesOf(ObjectRef o) const;

  /// Calls `fn(ObjectRef, PropertyId, const Value&)` for every property
  /// assignment of the graph, in unspecified order — the bulk accessor the
  /// delta compactor uses to copy a base generation's properties without
  /// one whole-map scan per object. Overlay views enumerate their override
  /// map plus the surviving, non-overridden base assignments; mapped
  /// graphs walk the file's entry table.
  void ForEachProperty(
      const std::function<void(ObjectRef, PropertyId, const Value&)>& fn)
      const;

 private:
  friend class GraphDeltaMerger;
  friend class storage::SnapshotCodec;

  struct PropKeyHash {
    size_t operator()(const std::pair<ObjectRef, PropertyId>& k) const {
      return HashCombine(ObjectRefHash()(k.first), k.second);
    }
  };

  /// Borrowed property universe of an overlay view; the value overrides
  /// themselves live in `props_` keyed by new-space ids.
  struct OverlayProps {
    std::shared_ptr<const PropertyGraph> base;
    uint32_t base_props = 0;
    std::vector<std::string> added_props;  // ids base_props + index
    std::unordered_map<std::string, PropertyId> added_prop_by_name;
  };

  /// In-place views of a mapped snapshot file's property tables. Entries
  /// hold the node entries first (indexed by `node_prop_begin`), then the
  /// edge entries (indexed by `edge_prop_begin`; offsets are global).
  struct MappedProps {
    std::shared_ptr<const void> pin;
    ConstSpan<LabelId> node_labels;       // size num_nodes
    ConstSpan<uint64_t> node_prop_begin;  // size num_nodes + 1
    ConstSpan<uint64_t> edge_prop_begin;  // size num_edges + 1
    ConstSpan<SnapshotPropEntry> entries;
    ConstSpan<char> value_heap;
  };

  /// Maps a new-space object of an overlay view to its base-generation ref;
  /// nullopt for objects added by the delta.
  std::optional<ObjectRef> BaseRef(ObjectRef o) const;
  /// Maps a base-generation object to its new-space ref; nullopt when the
  /// delta removed it.
  std::optional<ObjectRef> NewRef(ObjectRef base_ref) const;

  ConstSpan<SnapshotPropEntry> MappedEntriesOf(ObjectRef o) const;

  EdgeLabeledGraph skeleton_;
  std::vector<LabelId> node_labels_;
  Interner properties_;
  std::unordered_map<std::pair<ObjectRef, PropertyId>, Value, PropKeyHash>
      props_;
  std::shared_ptr<const OverlayProps> overlay_;  // null for plain graphs
  std::shared_ptr<const MappedProps> mapped_;    // null unless mapped
};

/// Decodes one snapshot property entry against its value heap.
Value DecodeSnapshotValue(const SnapshotPropEntry& e,
                          const ConstSpan<char>& heap);

}  // namespace gqzoo

#endif  // GQZOO_GRAPH_GRAPH_H_
