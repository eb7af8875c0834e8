#include "src/graph/delta/delta.h"

#include <cassert>
#include <cctype>
#include <cstdlib>
#include <sstream>

namespace gqzoo {

MutationOp MutationOp::AddNode(std::string name, std::string label) {
  MutationOp op;
  op.kind = Kind::kAddNode;
  op.name = std::move(name);
  op.label = std::move(label);
  return op;
}

MutationOp MutationOp::RemoveNode(std::string name) {
  MutationOp op;
  op.kind = Kind::kRemoveNode;
  op.name = std::move(name);
  return op;
}

MutationOp MutationOp::AddEdge(std::string name, std::string src,
                               std::string tgt, std::string label) {
  MutationOp op;
  op.kind = Kind::kAddEdge;
  op.name = std::move(name);
  op.src = std::move(src);
  op.tgt = std::move(tgt);
  op.label = std::move(label);
  return op;
}

MutationOp MutationOp::RemoveEdge(std::string name) {
  MutationOp op;
  op.kind = Kind::kRemoveEdge;
  op.name = std::move(name);
  return op;
}

MutationOp MutationOp::SetLabel(std::string node, std::string label) {
  MutationOp op;
  op.kind = Kind::kSetLabel;
  op.name = std::move(node);
  op.label = std::move(label);
  return op;
}

MutationOp MutationOp::SetNodeProperty(std::string node, std::string property,
                                       Value v) {
  MutationOp op;
  op.kind = Kind::kSetProperty;
  op.name = std::move(node);
  op.property = std::move(property);
  op.value = std::move(v);
  return op;
}

MutationOp MutationOp::SetEdgeProperty(std::string edge, std::string property,
                                       Value v) {
  MutationOp op = SetNodeProperty(std::move(edge), std::move(property),
                                  std::move(v));
  op.on_edge = true;
  return op;
}

std::string MutationOp::ToString() const {
  switch (kind) {
    case Kind::kAddNode:
      return "add-node " + name + " " + label;
    case Kind::kRemoveNode:
      return "del-node " + name;
    case Kind::kAddEdge:
      return "add-edge " + name + " " + src + " " + tgt + " " + label;
    case Kind::kRemoveEdge:
      return "del-edge " + name;
    case Kind::kSetLabel:
      return "set-label " + name + " " + label;
    case Kind::kSetProperty:
      return std::string("set-prop ") + (on_edge ? "edge " : "node ") + name +
             " " + property + " " + value.ToString();
  }
  return "";
}

namespace {

std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
    if (i >= line.size()) break;
    if (line[i] == '"') {
      // A quoted string token keeps its quotes (and escapes) for the value
      // parser; an escaped quote does not terminate the token.
      size_t j = i + 1;
      while (j < line.size() && line[j] != '"') {
        j += (line[j] == '\\' && j + 1 < line.size()) ? 2 : 1;
      }
      if (j < line.size()) ++j;  // include closing quote
      out.push_back(line.substr(i, j - i));
      i = j;
    } else {
      size_t j = i;
      while (j < line.size() &&
             !std::isspace(static_cast<unsigned char>(line[j]))) {
        ++j;
      }
      out.push_back(line.substr(i, j - i));
      i = j;
    }
  }
  return out;
}

Result<Value> ParseValueToken(const std::string& token) {
  if (token.empty()) {
    return Error(ErrorCode::kParse, "empty property value");
  }
  if (token == "true") return Value(true);
  if (token == "false") return Value(false);
  if (token.front() == '"') {
    if (token.size() < 2 || token.back() != '"') {
      return Error(ErrorCode::kParse, "unterminated string value: " + token);
    }
    return Value(UnescapeStringLiteral(token.substr(1, token.size() - 2)));
  }
  // Integer first; fall back to double.
  char* end = nullptr;
  long long i = std::strtoll(token.c_str(), &end, 10);
  if (end != nullptr && *end == '\0') return Value(static_cast<int64_t>(i));
  end = nullptr;
  double d = std::strtod(token.c_str(), &end);
  if (end != nullptr && *end == '\0') return Value(d);
  return Error(ErrorCode::kParse, "bad property value: " + token);
}

}  // namespace

bool IsMutationCommand(const std::string& word) {
  return word == "add-node" || word == "add-edge" || word == "del-node" ||
         word == "del-edge" || word == "set-label" || word == "set-prop";
}

bool IsValidMutationName(const std::string& s) {
  if (s.empty() || s.size() > kMaxMutationNameLen) return false;
  unsigned char first = static_cast<unsigned char>(s[0]);
  if (!std::isalpha(first) && s[0] != '_') return false;
  for (char c : s) {
    unsigned char u = static_cast<unsigned char>(c);
    if (!std::isalnum(u) && c != '_') return false;
  }
  return true;
}

Result<bool> ValidateMutationNames(const MutationOp& op) {
  auto bad = [](const char* what, const std::string& s) {
    const std::string shown = s.size() > 64 ? s.substr(0, 64) + "..." : s;
    return Error(ErrorCode::kInvalidArgument,
                 std::string(what) + " '" + shown +
                     "' is not a valid identifier ([A-Za-z_][A-Za-z0-9_]*, "
                     "at most " + std::to_string(kMaxMutationNameLen) +
                     " chars)");
  };
  if (!IsValidMutationName(op.name)) return bad("subject name", op.name);
  switch (op.kind) {
    case MutationOp::Kind::kAddNode:
    case MutationOp::Kind::kSetLabel:
      if (!IsValidMutationName(op.label)) return bad("label", op.label);
      break;
    case MutationOp::Kind::kAddEdge:
      if (!IsValidMutationName(op.label)) return bad("label", op.label);
      if (!IsValidMutationName(op.src)) return bad("source node", op.src);
      if (!IsValidMutationName(op.tgt)) return bad("target node", op.tgt);
      break;
    case MutationOp::Kind::kSetProperty:
      if (!IsValidMutationName(op.property)) {
        return bad("property", op.property);
      }
      if (op.value.is_string() &&
          op.value.as_string().size() > kMaxMutationValueLen) {
        return Error(ErrorCode::kInvalidArgument,
                     "string value of " +
                         std::to_string(op.value.as_string().size()) +
                         " bytes exceeds the write path's cap of " +
                         std::to_string(kMaxMutationValueLen));
      }
      break;
    case MutationOp::Kind::kRemoveNode:
    case MutationOp::Kind::kRemoveEdge:
      break;
  }
  return true;
}

Result<MutationOp> ParseMutationOp(const std::string& line) {
  std::vector<std::string> t = Tokenize(line);
  if (t.empty()) return Error(ErrorCode::kParse, "empty mutation");
  const std::string& verb = t[0];
  auto arity = [&](size_t n) -> bool { return t.size() == n; };
  if (verb == "add-node") {
    if (!arity(3)) {
      return Error(ErrorCode::kParse, "usage: add-node <name> <label>");
    }
    return MutationOp::AddNode(t[1], t[2]);
  }
  if (verb == "del-node") {
    if (!arity(2)) return Error(ErrorCode::kParse, "usage: del-node <name>");
    return MutationOp::RemoveNode(t[1]);
  }
  if (verb == "add-edge") {
    if (!arity(5)) {
      return Error(ErrorCode::kParse,
                   "usage: add-edge <name> <src> <tgt> <label>");
    }
    return MutationOp::AddEdge(t[1], t[2], t[3], t[4]);
  }
  if (verb == "del-edge") {
    if (!arity(2)) return Error(ErrorCode::kParse, "usage: del-edge <name>");
    return MutationOp::RemoveEdge(t[1]);
  }
  if (verb == "set-label") {
    if (!arity(3)) {
      return Error(ErrorCode::kParse, "usage: set-label <node> <label>");
    }
    return MutationOp::SetLabel(t[1], t[2]);
  }
  if (verb == "set-prop") {
    if (!arity(5) || (t[1] != "node" && t[1] != "edge")) {
      return Error(ErrorCode::kParse,
                   "usage: set-prop node|edge <name> <property> <value>");
    }
    Result<Value> v = ParseValueToken(t[4]);
    if (!v.ok()) return v.error();
    return t[1] == "edge"
               ? MutationOp::SetEdgeProperty(t[2], t[3], std::move(v).value())
               : MutationOp::SetNodeProperty(t[2], t[3], std::move(v).value());
  }
  return Error(ErrorCode::kParse, "unknown mutation command: " + verb);
}

MutationBatch& MutationBatch::AddNode(std::string name, std::string label) {
  ops.push_back(MutationOp::AddNode(std::move(name), std::move(label)));
  return *this;
}
MutationBatch& MutationBatch::RemoveNode(std::string name) {
  ops.push_back(MutationOp::RemoveNode(std::move(name)));
  return *this;
}
MutationBatch& MutationBatch::AddEdge(std::string name, std::string src,
                                      std::string tgt, std::string label) {
  ops.push_back(MutationOp::AddEdge(std::move(name), std::move(src),
                                    std::move(tgt), std::move(label)));
  return *this;
}
MutationBatch& MutationBatch::RemoveEdge(std::string name) {
  ops.push_back(MutationOp::RemoveEdge(std::move(name)));
  return *this;
}
MutationBatch& MutationBatch::SetLabel(std::string node, std::string label) {
  ops.push_back(MutationOp::SetLabel(std::move(node), std::move(label)));
  return *this;
}
MutationBatch& MutationBatch::SetNodeProperty(std::string node,
                                              std::string property, Value v) {
  ops.push_back(MutationOp::SetNodeProperty(std::move(node),
                                            std::move(property), std::move(v)));
  return *this;
}
MutationBatch& MutationBatch::SetEdgeProperty(std::string edge,
                                              std::string property, Value v) {
  ops.push_back(MutationOp::SetEdgeProperty(std::move(edge),
                                            std::move(property), std::move(v)));
  return *this;
}

DeltaOverlay::DeltaOverlay(std::shared_ptr<const PropertyGraph> base,
                           const GraphSnapshot& base_snapshot)
    : base_nodes_(static_cast<uint32_t>(base->NumNodes())),
      base_edges_(static_cast<uint32_t>(base->NumEdges())),
      base_labels_(static_cast<uint32_t>(base->skeleton().NumLabels())),
      base_props_(static_cast<uint32_t>(base->NumProperties())),
      base_(std::move(base)),
      base_snapshot_(&base_snapshot) {
  assert(&base_snapshot.graph() == &base_->skeleton() &&
         base_snapshot.has_node_labels() && "snapshot of another graph");
}

std::optional<uint32_t> DeltaOverlay::ResolveNode(
    const std::string& name) const {
  auto it = added_node_by_name_.find(name);
  if (it != added_node_by_name_.end()) {
    // The latest claimant among added nodes; when dead the name is free
    // (its base holder, if any, was already dead when the add succeeded).
    if (!added_nodes_[it->second].alive) return std::nullopt;
    return base_nodes_ + it->second;
  }
  std::optional<NodeId> base_id = base_->FindNode(name);
  if (!base_id.has_value() || !NodeAlive(*base_id)) return std::nullopt;
  return *base_id;
}

std::optional<uint32_t> DeltaOverlay::ResolveEdge(
    const std::string& name) const {
  auto it = added_edge_by_name_.find(name);
  if (it != added_edge_by_name_.end()) {
    if (!added_edges_[it->second].alive) return std::nullopt;
    return base_edges_ + it->second;
  }
  std::optional<EdgeId> base_id = base_->FindEdge(name);
  if (!base_id.has_value() || !EdgeAlive(*base_id)) return std::nullopt;
  return *base_id;
}

bool DeltaOverlay::NodeAlive(uint32_t old_id) const {
  if (old_id < base_nodes_) {
    return base_node_dead_.empty() || !base_node_dead_[old_id];
  }
  return added_nodes_[old_id - base_nodes_].alive;
}

bool DeltaOverlay::EdgeAlive(uint32_t old_id) const {
  if (old_id < base_edges_) {
    return base_edge_dead_.empty() || !base_edge_dead_[old_id];
  }
  return added_edges_[old_id - base_edges_].alive;
}

LabelId DeltaOverlay::NodeLabelOf(uint32_t old_id) const {
  if (old_id >= base_nodes_) return added_nodes_[old_id - base_nodes_].label;
  auto it = node_label_override_.find(old_id);
  if (it != node_label_override_.end()) return it->second;
  return base_->NodeLabel(old_id);
}

LabelId DeltaOverlay::EdgeLabelOf(uint32_t old_id) const {
  if (old_id >= base_edges_) return added_edges_[old_id - base_edges_].label;
  return base_->EdgeLabel(old_id);
}

LabelId DeltaOverlay::InternLabelName(const std::string& name) {
  std::optional<LabelId> base_id = base_->FindLabel(name);
  if (base_id.has_value()) return *base_id;
  auto it = added_label_by_name_.find(name);
  if (it != added_label_by_name_.end()) return it->second;
  LabelId id = base_labels_ + static_cast<LabelId>(added_labels_.size());
  added_labels_.push_back(name);
  added_label_by_name_.emplace(name, id);
  return id;
}

PropertyId DeltaOverlay::InternPropertyName(const std::string& name) {
  std::optional<PropertyId> base_id = base_->FindProperty(name);
  if (base_id.has_value()) return *base_id;
  auto it = added_prop_by_name_.find(name);
  if (it != added_prop_by_name_.end()) return it->second;
  PropertyId id = base_props_ + static_cast<PropertyId>(added_props_.size());
  added_props_.push_back(name);
  added_prop_by_name_.emplace(name, id);
  return id;
}

const std::string& DeltaOverlay::LabelNameOf(LabelId l) const {
  if (l < base_labels_) return base_->LabelName(l);
  return added_labels_[l - base_labels_];
}

void DeltaOverlay::RemoveEdgeInternal(uint32_t old_id) {
  touched_label_ids_.insert(EdgeLabelOf(old_id));
  if (old_id < base_edges_) {
    if (base_edge_dead_.empty()) base_edge_dead_.assign(base_edges_, 0);
    base_edge_dead_[old_id] = 1;
    ++removed_base_edges_;
  } else {
    added_edges_[old_id - base_edges_].alive = false;
    --alive_added_edges_;
  }
}

Result<bool> DeltaOverlay::ApplyOne(const MutationOp& op) {
  // Identifier validation up front (before any interning or resolution):
  // rejected ops must leave zero state behind, and accepted ops must be
  // WAL-payload round-trip safe.
  Result<bool> valid = ValidateMutationNames(op);
  if (!valid.ok()) return valid;
  switch (op.kind) {
    case MutationOp::Kind::kAddNode: {
      if (ResolveNode(op.name).has_value()) {
        return Error(ErrorCode::kInvalidArgument,
                     "node '" + op.name + "' already exists");
      }
      LabelId l = InternLabelName(op.label);
      uint32_t ordinal = static_cast<uint32_t>(added_nodes_.size());
      added_nodes_.push_back(AddedNode{op.name, l, true});
      added_node_by_name_[op.name] = ordinal;
      ++alive_added_nodes_;
      touched_label_ids_.insert(l);
      return true;
    }
    case MutationOp::Kind::kRemoveNode: {
      std::optional<uint32_t> id = ResolveNode(op.name);
      if (!id.has_value()) {
        return Error(ErrorCode::kNotFound, "unknown node '" + op.name + "'");
      }
      // Cascade: drop every alive incident edge first (base + added).
      if (*id < base_nodes_) {
        for (const GraphSnapshot::Hop& hop : base_snapshot_->Out(*id)) {
          if (EdgeAlive(hop.edge)) RemoveEdgeInternal(hop.edge);
        }
        for (const GraphSnapshot::Hop& hop : base_snapshot_->In(*id)) {
          if (EdgeAlive(hop.edge)) RemoveEdgeInternal(hop.edge);
        }
      }
      auto drop_added = [&](std::unordered_map<uint32_t,
                                               std::vector<uint32_t>>& adj) {
        auto it = adj.find(*id);
        if (it == adj.end()) return;
        for (uint32_t ordinal : it->second) {
          if (added_edges_[ordinal].alive) {
            RemoveEdgeInternal(base_edges_ + ordinal);
          }
        }
      };
      drop_added(added_out_);
      drop_added(added_in_);
      touched_label_ids_.insert(NodeLabelOf(*id));
      if (*id < base_nodes_) {
        if (base_node_dead_.empty()) base_node_dead_.assign(base_nodes_, 0);
        base_node_dead_[*id] = 1;
        ++removed_base_nodes_;
      } else {
        added_nodes_[*id - base_nodes_].alive = false;
        --alive_added_nodes_;
      }
      return true;
    }
    case MutationOp::Kind::kAddEdge: {
      if (ResolveEdge(op.name).has_value()) {
        return Error(ErrorCode::kInvalidArgument,
                     "edge '" + op.name + "' already exists");
      }
      std::optional<uint32_t> src = ResolveNode(op.src);
      if (!src.has_value()) {
        return Error(ErrorCode::kNotFound, "unknown node '" + op.src + "'");
      }
      std::optional<uint32_t> tgt = ResolveNode(op.tgt);
      if (!tgt.has_value()) {
        return Error(ErrorCode::kNotFound, "unknown node '" + op.tgt + "'");
      }
      LabelId l = InternLabelName(op.label);
      uint32_t ordinal = static_cast<uint32_t>(added_edges_.size());
      added_edges_.push_back(AddedEdge{op.name, *src, *tgt, l, true});
      added_edge_by_name_[op.name] = ordinal;
      added_out_[*src].push_back(ordinal);
      added_in_[*tgt].push_back(ordinal);
      ++alive_added_edges_;
      touched_label_ids_.insert(l);
      return true;
    }
    case MutationOp::Kind::kRemoveEdge: {
      std::optional<uint32_t> id = ResolveEdge(op.name);
      if (!id.has_value()) {
        return Error(ErrorCode::kNotFound, "unknown edge '" + op.name + "'");
      }
      RemoveEdgeInternal(*id);
      return true;
    }
    case MutationOp::Kind::kSetLabel: {
      std::optional<uint32_t> id = ResolveNode(op.name);
      if (!id.has_value()) {
        return Error(ErrorCode::kNotFound, "unknown node '" + op.name + "'");
      }
      LabelId next = InternLabelName(op.label);
      LabelId prev = NodeLabelOf(*id);
      if (next == prev) return true;
      touched_label_ids_.insert(prev);
      touched_label_ids_.insert(next);
      if (*id < base_nodes_) {
        node_label_override_[*id] = next;
      } else {
        added_nodes_[*id - base_nodes_].label = next;
      }
      return true;
    }
    case MutationOp::Kind::kSetProperty: {
      std::optional<uint32_t> id =
          op.on_edge ? ResolveEdge(op.name) : ResolveNode(op.name);
      if (!id.has_value()) {
        return Error(ErrorCode::kNotFound,
                     std::string("unknown ") + (op.on_edge ? "edge" : "node") +
                         " '" + op.name + "'");
      }
      PropertyId p = InternPropertyName(op.property);
      prop_overrides_[PropKey(op.on_edge, *id, p)] = op.value;
      return true;
    }
  }
  return Error(ErrorCode::kInvalidArgument, "unknown mutation kind");
}

Result<size_t> DeltaOverlay::Apply(const MutationBatch& batch,
                                   const QueryContext* ctx) {
  size_t applied = 0;
  for (const MutationOp& op : batch.ops) {
    if (ctx != nullptr) {
      if (ShouldStop(ctx) ||
          !ChargeMemory(ctx, sizeof(MutationOp) + op.name.size() +
                                op.label.size() + 64)) {
        return Error(ErrorCode::kResourceExhausted,
                     "write budget exhausted after " +
                         std::to_string(applied) + " ops: " +
                         ctx->Report().ToString());
      }
    }
    Result<bool> r = ApplyOne(op);
    if (!r.ok()) {
      return Error(r.error().code(),
                   "op " + std::to_string(applied) + " (" + op.ToString() +
                       "): " + r.error().message());
    }
    log_.push_back(op);
    ++applied;
  }
  return applied;
}

size_t DeltaOverlay::ApproxBytes() const {
  size_t bytes = log_.size() * sizeof(MutationOp) +
                 added_nodes_.size() * sizeof(AddedNode) +
                 added_edges_.size() * sizeof(AddedEdge) +
                 base_node_dead_.size() + base_edge_dead_.size();
  bytes += prop_overrides_.size() * (sizeof(uint64_t) + sizeof(Value));
  bytes += (added_out_.size() + added_in_.size()) * 48;
  return bytes;
}

}  // namespace gqzoo
