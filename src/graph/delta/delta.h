#ifndef GQZOO_GRAPH_DELTA_DELTA_H_
#define GQZOO_GRAPH_DELTA_DELTA_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/graph/csr.h"
#include "src/graph/graph.h"
#include "src/util/query_context.h"
#include "src/util/result.h"

namespace gqzoo {

/// One graph mutation. All subjects are identified by display name, never
/// by id: ids are an artifact of a particular base generation and change
/// when the compactor renumbers, while names are stable across the whole
/// overlay → merge → compact lifecycle (replaying the same op log against
/// the base always reproduces the same graph, byte for byte).
struct MutationOp {
  enum class Kind : uint8_t {
    kAddNode,      // name, label
    kRemoveNode,   // name (removes incident edges too)
    kAddEdge,      // name, src, tgt, label
    kRemoveEdge,   // name
    kSetLabel,     // name (a node), label
    kSetProperty,  // name, on_edge, property, value
  };

  Kind kind = Kind::kAddNode;
  std::string name;      // subject node/edge display name (required)
  std::string label;     // kAddNode, kAddEdge, kSetLabel
  std::string src, tgt;  // kAddEdge endpoint node names
  bool on_edge = false;  // kSetProperty: subject is an edge
  std::string property;  // kSetProperty
  Value value;           // kSetProperty

  static MutationOp AddNode(std::string name, std::string label);
  static MutationOp RemoveNode(std::string name);
  static MutationOp AddEdge(std::string name, std::string src, std::string tgt,
                            std::string label);
  static MutationOp RemoveEdge(std::string name);
  static MutationOp SetLabel(std::string node, std::string label);
  static MutationOp SetNodeProperty(std::string node, std::string property,
                                    Value v);
  static MutationOp SetEdgeProperty(std::string edge, std::string property,
                                    Value v);

  /// Shell-command syntax, e.g. `add-edge t9 a1 a3 Transfer`; round-trips
  /// with `ParseMutationOp`.
  std::string ToString() const;
};

/// Parses the shell mutation syntax:
///
///     add-node <name> <label>
///     add-edge <name> <src> <tgt> <label>
///     del-node <name>
///     del-edge <name>
///     set-label <node> <label>
///     set-prop node|edge <name> <property> <value>
///
/// Values are integers, doubles, double-quoted strings, or true/false (the
/// graph text format's value grammar).
Result<MutationOp> ParseMutationOp(const std::string& line);

/// Whether `word` is one of the mutation command verbs above.
bool IsMutationCommand(const std::string& word);

/// Longest name/label/property identifier the write path accepts.
inline constexpr size_t kMaxMutationNameLen = 1024;
/// Longest string property value the write path accepts.
inline constexpr size_t kMaxMutationValueLen = size_t{64} << 10;

/// Whether `s` is a valid subject/label/property identifier for the write
/// path: non-empty, at most `kMaxMutationNameLen` chars, first char
/// alphabetic or '_', rest alphanumeric or '_'. This is exactly the graph
/// text format's bare-identifier charset, so every op the overlay accepts
/// round-trips losslessly through the WAL's line-oriented textual payload
/// and through `PropertyGraphToText` — durability-safety by construction
/// rather than by escaping names everywhere they are rendered. The
/// reference simulator (`GraphSim`) enforces the identical rule.
bool IsValidMutationName(const std::string& s);

/// Checks every identifier `op` carries (subject, label, endpoints,
/// property) against `IsValidMutationName`, and string values against
/// `kMaxMutationValueLen`; `kInvalidArgument` on violation. Runs before any
/// state change in both `DeltaOverlay::ApplyOne` and the fuzzer's
/// reference simulator, so the two reject identically.
Result<bool> ValidateMutationNames(const MutationOp& op);

/// An ordered group of mutations applied as one write. Grouping amortizes
/// admission and logging; it is not a transaction — on a mid-batch
/// error the already-applied prefix stays (and only that prefix enters the
/// replay log, so delta and rebuild views never diverge).
struct MutationBatch {
  std::vector<MutationOp> ops;

  MutationBatch& AddNode(std::string name, std::string label);
  MutationBatch& RemoveNode(std::string name);
  MutationBatch& AddEdge(std::string name, std::string src, std::string tgt,
                         std::string label);
  MutationBatch& RemoveEdge(std::string name);
  MutationBatch& SetLabel(std::string node, std::string label);
  MutationBatch& SetNodeProperty(std::string node, std::string property,
                                 Value v);
  MutationBatch& SetEdgeProperty(std::string edge, std::string property,
                                 Value v);

  bool empty() const { return ops.empty(); }
  size_t size() const { return ops.size(); }
};

/// The pending write set layered over one immutable base `PropertyGraph`:
/// added nodes/edges, tombstone bitmaps for removed base elements, label
/// overrides, and property overrides — everything keyed in "old space"
/// (base ids, with added elements numbered past the base counts) so no
/// renumbering happens until a merge or compaction materializes a view.
///
/// Not thread-safe: the engine serializes writers (and the merger, which
/// reads this state) behind its write lock. The base graph is pinned by
/// shared_ptr and never modified; `base_snapshot`, built from it and
/// outliving the overlay, gives a removed node's incident base edges and
/// is what the merger splices.
class DeltaOverlay {
 public:
  DeltaOverlay(std::shared_ptr<const PropertyGraph> base,
               const GraphSnapshot& base_snapshot);

  /// Applies `batch` op by op, stopping at the first invalid op (the error
  /// names the op and its index; prior ops stay applied). `ctx`, when set,
  /// charges one step per op plus the overlay growth in bytes — the write
  /// path's budget admission.
  Result<size_t> Apply(const MutationBatch& batch,
                       const QueryContext* ctx = nullptr);

  const std::shared_ptr<const PropertyGraph>& base() const { return base_; }

  /// Number of ops applied since construction == log().size(). The engine
  /// publishes this as the overlay's delta sequence number.
  uint64_t seq() const { return log_.size(); }
  const std::vector<MutationOp>& log() const { return log_; }

  size_t alive_added_nodes() const { return alive_added_nodes_; }
  size_t alive_added_edges() const { return alive_added_edges_; }
  size_t removed_base_nodes() const { return removed_base_nodes_; }
  size_t removed_base_edges() const { return removed_base_edges_; }

  /// Labels (ids in the overlay's layered universe) whose membership any
  /// applied op changed since construction — the merger recomputes exactly
  /// these labels' statistics.
  const std::unordered_set<LabelId>& touched_label_ids() const {
    return touched_label_ids_;
  }

  size_t ApproxBytes() const;

 private:
  friend class GraphDeltaMerger;

  struct AddedNode {
    std::string name;
    LabelId label;
    bool alive;
  };
  struct AddedEdge {
    std::string name;
    uint32_t src, tgt;  // old-space node ids
    LabelId label;
    bool alive;
  };

  // Old-space ids: values below the base count are base ids; the rest are
  // added ordinals offset by the base count.
  uint32_t base_nodes_ = 0;
  uint32_t base_edges_ = 0;
  uint32_t base_labels_ = 0;
  uint32_t base_props_ = 0;

  std::optional<uint32_t> ResolveNode(const std::string& name) const;
  std::optional<uint32_t> ResolveEdge(const std::string& name) const;
  bool NodeAlive(uint32_t old_id) const;
  bool EdgeAlive(uint32_t old_id) const;
  LabelId NodeLabelOf(uint32_t old_id) const;
  LabelId EdgeLabelOf(uint32_t old_id) const;
  /// Interns into the layered label universe; records newly created names.
  LabelId InternLabelName(const std::string& name);
  PropertyId InternPropertyName(const std::string& name);
  const std::string& LabelNameOf(LabelId l) const;
  void RemoveEdgeInternal(uint32_t old_id);

  Result<bool> ApplyOne(const MutationOp& op);

  std::shared_ptr<const PropertyGraph> base_;
  const GraphSnapshot* base_snapshot_;
  std::vector<MutationOp> log_;

  std::vector<AddedNode> added_nodes_;
  std::vector<AddedEdge> added_edges_;
  // Latest claimant of a name among added elements (may be dead; a dead
  // entry means the name is free — its base holder, if any, died first).
  std::unordered_map<std::string, uint32_t> added_node_by_name_;
  std::unordered_map<std::string, uint32_t> added_edge_by_name_;

  std::vector<uint8_t> base_node_dead_;  // sized lazily on first removal
  std::vector<uint8_t> base_edge_dead_;
  std::unordered_map<uint32_t, LabelId> node_label_override_;  // base ids only

  // Old-space incident added edges, for cascade removal.
  std::unordered_map<uint32_t, std::vector<uint32_t>> added_out_;
  std::unordered_map<uint32_t, std::vector<uint32_t>> added_in_;

  // (old-space object, property) -> value. Packs kind|id|property.
  std::unordered_map<uint64_t, Value> prop_overrides_;
  static uint64_t PropKey(bool edge, uint32_t old_id, PropertyId p) {
    return (uint64_t{edge} << 63) | (uint64_t{old_id} << 31) | p;
  }

  std::vector<std::string> added_labels_;  // ids base_labels_ + index
  std::unordered_map<std::string, LabelId> added_label_by_name_;
  std::vector<std::string> added_props_;
  std::unordered_map<std::string, PropertyId> added_prop_by_name_;

  std::unordered_set<LabelId> touched_label_ids_;

  size_t alive_added_nodes_ = 0;
  size_t alive_added_edges_ = 0;
  size_t removed_base_nodes_ = 0;
  size_t removed_base_edges_ = 0;
};

}  // namespace gqzoo

#endif  // GQZOO_GRAPH_DELTA_DELTA_H_
