#include "src/fuzz/mutation_gen.h"

#include <algorithm>
#include <sstream>

#include "src/fuzz/metamorphic.h"
#include "src/graph/delta/merge.h"
#include "src/graph/graph_io.h"

namespace gqzoo {
namespace fuzz {

namespace {

/// First differing line of two renderings, for log-friendly divergences.
std::string FirstDiff(const std::string& a, const std::string& b) {
  std::istringstream as(a), bs(b);
  std::string la, lb;
  size_t lineno = 1;
  while (true) {
    const bool ga = static_cast<bool>(std::getline(as, la));
    const bool gb = static_cast<bool>(std::getline(bs, lb));
    if (!ga && !gb) return "renderings identical";
    if (!ga || !gb || la != lb) {
      return "line " + std::to_string(lineno) + ": '" + (ga ? la : "<eof>") +
             "' vs '" + (gb ? lb : "<eof>") + "'";
    }
    ++lineno;
  }
}

std::string StatusString(bool ok, ErrorCode code) {
  return ok ? "OK" : std::string(ErrorCodeName(code));
}

/// The mutation.cached-vs-cold leg (see RunMutationOracle). `rebuilt` is
/// the simulator's from-scratch rebuild, already checked byte-identical to
/// the merged view.
void CheckCachedAfterWrites(const FuzzCase& c, const PropertyGraph& base,
                            const PropertyGraph& rebuilt,
                            const OracleOptions& options,
                            OracleReport* report) {
  QueryEngine& engine = *options.engine;
  engine.SetGraph(base);
  QueryRequest request = c.ToRequest();
  request.max_results = options.max_results;
  request.max_path_length = options.max_path_length;
  const Result<QueryResponse> before = engine.Execute(request);
  // Only a parse error leaves no plan in the cache.
  const bool cached_before =
      before.ok() || before.error().code() != ErrorCode::kParse;

  for (size_t i = 0; i < c.mutations.size(); ++i) {
    if (i == c.mutations.size() / 2) engine.CompactNow();
    MutationBatch batch;
    batch.ops.push_back(c.mutations[i]);
    (void)engine.ApplyMutation(batch);  // op fates: mutation.op-status
  }
  const std::shared_ptr<const PropertyGraph> after = engine.graph_snapshot();
  const bool vocabulary_grew =
      after->skeleton().NumLabels() != base.skeleton().NumLabels() ||
      after->NumProperties() != base.NumProperties();
  const Result<QueryResponse> cached = engine.Execute(request);

  engine.SetGraph(rebuilt);  // a new epoch: compiled cold
  const Result<QueryResponse> cold = engine.Execute(request);

  ++report->checks;
  ++report->leg_checks["mutation.cached-vs-cold"];
  const char* check = "mutation.cached-vs-cold";
  if (cached_before && !vocabulary_grew && cached.ok() &&
      !cached.value().cache_hit) {
    report->Add(check, "the writes interned no name, yet the plan cached "
                       "before them was not reused");
  }
  const std::string mismatch = ResponseMismatch(cached, cold);
  if (!mismatch.empty()) report->Add(check, "cached vs cold: " + mismatch);
}

}  // namespace

GraphSim::GraphSim(const PropertyGraph& base) : base_(&base) {
  base_nodes_ = base.NumNodes();
  base_edges_ = base.NumEdges();
  nodes_.reserve(base_nodes_);
  for (size_t n = 0; n < base_nodes_; ++n) {
    NodeId id = static_cast<NodeId>(n);
    nodes_.push_back(
        {std::string(base.NodeName(id)), base.LabelName(base.NodeLabel(id))});
    node_by_name_[std::string(base.NodeName(id))] = n;
  }
  edges_.reserve(base_edges_);
  for (size_t e = 0; e < base_edges_; ++e) {
    EdgeId id = static_cast<EdgeId>(e);
    edges_.push_back({std::string(base.EdgeName(id)), base.Src(id),
                      base.Tgt(id), base.LabelName(base.EdgeLabel(id))});
    edge_by_name_[std::string(base.EdgeName(id))] = e;
  }
  alive_nodes_ = base_nodes_;
  alive_edges_ = base_edges_;
}

std::optional<size_t> GraphSim::ResolveNodeIdx(const std::string& name) const {
  auto it = node_by_name_.find(name);
  if (it == node_by_name_.end() || !nodes_[it->second].alive) {
    return std::nullopt;
  }
  return it->second;
}

std::optional<size_t> GraphSim::ResolveEdgeIdx(const std::string& name) const {
  auto it = edge_by_name_.find(name);
  if (it == edge_by_name_.end() || !edges_[it->second].alive) {
    return std::nullopt;
  }
  return it->second;
}

bool GraphSim::ResolvableNode(const std::string& name) const {
  return ResolveNodeIdx(name).has_value();
}

bool GraphSim::ResolvableEdge(const std::string& name) const {
  return ResolveEdgeIdx(name).has_value();
}

void GraphSim::InternProperty(const std::string& name) {
  if (base_->FindProperty(name).has_value()) return;
  if (std::find(new_props_.begin(), new_props_.end(), name) !=
      new_props_.end()) {
    return;
  }
  new_props_.push_back(name);
}

Result<bool> GraphSim::Apply(const MutationOp& op) {
  // Same up-front identifier validation as DeltaOverlay::ApplyOne (shared
  // predicate, so the two cannot drift on what is WAL-representable).
  Result<bool> valid = ValidateMutationNames(op);
  if (!valid.ok()) return valid;
  switch (op.kind) {
    case MutationOp::Kind::kAddNode: {
      if (ResolveNodeIdx(op.name).has_value()) {
        return Error(ErrorCode::kInvalidArgument,
                     "node '" + op.name + "' already exists");
      }
      node_by_name_[op.name] = nodes_.size();
      nodes_.push_back({op.name, op.label});
      ++alive_nodes_;
      return true;
    }
    case MutationOp::Kind::kRemoveNode: {
      std::optional<size_t> id = ResolveNodeIdx(op.name);
      if (!id.has_value()) {
        return Error(ErrorCode::kNotFound, "unknown node '" + op.name + "'");
      }
      for (SimEdge& e : edges_) {
        if (e.alive && (e.src == *id || e.tgt == *id)) {
          e.alive = false;
          --alive_edges_;
        }
      }
      nodes_[*id].alive = false;
      --alive_nodes_;
      return true;
    }
    case MutationOp::Kind::kAddEdge: {
      if (ResolveEdgeIdx(op.name).has_value()) {
        return Error(ErrorCode::kInvalidArgument,
                     "edge '" + op.name + "' already exists");
      }
      std::optional<size_t> src = ResolveNodeIdx(op.src);
      if (!src.has_value()) {
        return Error(ErrorCode::kNotFound, "unknown node '" + op.src + "'");
      }
      std::optional<size_t> tgt = ResolveNodeIdx(op.tgt);
      if (!tgt.has_value()) {
        return Error(ErrorCode::kNotFound, "unknown node '" + op.tgt + "'");
      }
      edge_by_name_[op.name] = edges_.size();
      edges_.push_back({op.name, *src, *tgt, op.label});
      ++alive_edges_;
      return true;
    }
    case MutationOp::Kind::kRemoveEdge: {
      std::optional<size_t> id = ResolveEdgeIdx(op.name);
      if (!id.has_value()) {
        return Error(ErrorCode::kNotFound, "unknown edge '" + op.name + "'");
      }
      edges_[*id].alive = false;
      --alive_edges_;
      return true;
    }
    case MutationOp::Kind::kSetLabel: {
      std::optional<size_t> id = ResolveNodeIdx(op.name);
      if (!id.has_value()) {
        return Error(ErrorCode::kNotFound, "unknown node '" + op.name + "'");
      }
      nodes_[*id].label = op.label;
      return true;
    }
    case MutationOp::Kind::kSetProperty: {
      std::optional<size_t> id =
          op.on_edge ? ResolveEdgeIdx(op.name) : ResolveNodeIdx(op.name);
      if (!id.has_value()) {
        return Error(ErrorCode::kNotFound,
                     std::string("unknown ") +
                         (op.on_edge ? "edge" : "node") + " '" + op.name +
                         "'");
      }
      InternProperty(op.property);
      overrides_[{op.on_edge, *id, op.property}] = op.value;
      return true;
    }
  }
  return Error(ErrorCode::kInvalidArgument, "unknown mutation kind");
}

PropertyGraph GraphSim::Build() const {
  PropertyGraph out;
  std::vector<NodeId> node_id(nodes_.size(), 0);
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].alive) {
      node_id[i] = out.AddNode(nodes_[i].name, nodes_[i].label);
    }
  }
  std::vector<EdgeId> edge_id(edges_.size(), 0);
  for (size_t i = 0; i < edges_.size(); ++i) {
    const SimEdge& e = edges_[i];
    if (e.alive) {
      edge_id[i] = out.AddEdge(node_id[e.src], node_id[e.tgt], e.label,
                               e.name);
    }
  }
  // Rendering sorts an object's properties by PropertyId, so the rebuild
  // must intern names in the merged view's order: the base universe in base
  // id order, then the log's first-set order.
  for (size_t p = 0; p < base_->NumProperties(); ++p) {
    out.InternProperty(base_->PropertyName(static_cast<PropertyId>(p)));
  }
  for (const std::string& p : new_props_) out.InternProperty(p);
  // Base properties of surviving base objects, except where overridden.
  for (size_t i = 0; i < base_nodes_; ++i) {
    if (!nodes_[i].alive) continue;
    ObjectRef o = ObjectRef::Node(static_cast<NodeId>(i));
    for (const auto& [pid, v] : base_->PropertiesOf(o)) {
      if (overrides_.count({false, i, base_->PropertyName(pid)}) == 0) {
        out.SetProperty(ObjectRef::Node(node_id[i]), base_->PropertyName(pid),
                        v);
      }
    }
  }
  for (size_t i = 0; i < base_edges_; ++i) {
    if (!edges_[i].alive) continue;
    ObjectRef o = ObjectRef::Edge(static_cast<EdgeId>(i));
    for (const auto& [pid, v] : base_->PropertiesOf(o)) {
      if (overrides_.count({true, i, base_->PropertyName(pid)}) == 0) {
        out.SetProperty(ObjectRef::Edge(edge_id[i]), base_->PropertyName(pid),
                        v);
      }
    }
  }
  for (const auto& [key, v] : overrides_) {
    const bool on_edge = std::get<0>(key);
    const size_t idx = std::get<1>(key);
    const std::string& prop = std::get<2>(key);
    if (on_edge ? !edges_[idx].alive : !nodes_[idx].alive) continue;
    out.SetProperty(on_edge ? ObjectRef::Edge(edge_id[idx])
                            : ObjectRef::Node(node_id[idx]),
                    prop, v);
  }
  return out;
}

std::vector<std::string> GraphSim::AliveNodeNames() const {
  std::vector<std::string> names;
  names.reserve(alive_nodes_);
  for (const SimNode& n : nodes_) {
    if (n.alive) names.push_back(n.name);
  }
  return names;
}

std::vector<std::string> GraphSim::AliveEdgeNames() const {
  std::vector<std::string> names;
  names.reserve(alive_edges_);
  for (const SimEdge& e : edges_) {
    if (e.alive) names.push_back(e.name);
  }
  return names;
}

std::vector<MutationOp> GenMutations(FuzzRng* rng, const PropertyGraph& base,
                                     const std::vector<std::string>& labels,
                                     const MutationGenOptions& options) {
  GraphSim sim(base);
  std::vector<MutationOp> ops;
  const size_t count = rng->Range(options.min_ops, options.max_ops);
  size_t fresh = 0;

  auto pick_label = [&]() -> std::string {
    if (labels.empty() || rng->Percent(options.fresh_label_percent)) {
      return "Lx" + std::to_string(rng->Below(3));
    }
    return labels[rng->Index(labels.size())];
  };
  // Empty pools fall back to a name that cannot exist (the op then
  // exercises the NOT_FOUND path, which is fine coverage too).
  auto pick_node = [&]() -> std::string {
    std::vector<std::string> names = sim.AliveNodeNames();
    return names.empty() ? std::string("zz_missing")
                         : names[rng->Index(names.size())];
  };
  auto pick_edge = [&]() -> std::string {
    std::vector<std::string> names = sim.AliveEdgeNames();
    return names.empty() ? std::string("zz_missing")
                         : names[rng->Index(names.size())];
  };
  auto pick_value = [&]() -> Value {
    switch (rng->Index(3)) {
      case 0: return Value(static_cast<int64_t>(rng->Below(100)));
      case 1: return Value(rng->OneIn(2));
      default: return Value("s" + std::to_string(rng->Below(5)));
    }
  };
  const char* kProps[] = {"k", "v0", "v1"};

  for (size_t i = 0; i < count; ++i) {
    const bool corrupt = rng->Percent(options.invalid_percent);
    MutationOp op;
    switch (rng->Index(6)) {
      case 0:
        op = MutationOp::AddNode("w" + std::to_string(fresh++), pick_label());
        if (corrupt) op.name = pick_node();  // duplicate-name rejection
        break;
      case 1:
        op = MutationOp::AddEdge("t" + std::to_string(fresh++), pick_node(),
                                 pick_node(), pick_label());
        if (corrupt) op.src = "zz_missing";
        break;
      case 2:
        op = MutationOp::RemoveNode(corrupt ? "zz_missing" : pick_node());
        break;
      case 3:
        op = MutationOp::RemoveEdge(corrupt ? "zz_missing" : pick_edge());
        break;
      case 4:
        op = MutationOp::SetLabel(corrupt ? "zz_missing" : pick_node(),
                                  pick_label());
        break;
      default: {
        const std::string prop = kProps[rng->Index(3)];
        if (rng->OneIn(3)) {
          op = MutationOp::SetEdgeProperty(
              corrupt ? "zz_missing" : pick_edge(), prop, pick_value());
        } else {
          op = MutationOp::SetNodeProperty(
              corrupt ? "zz_missing" : pick_node(), prop, pick_value());
        }
        break;
      }
    }
    sim.Apply(op);  // keep the sim in sync; rejected ops stay in the case
    ops.push_back(std::move(op));
  }
  return ops;
}

void RunMutationOracle(const FuzzCase& c, const OracleOptions& options,
                       OracleReport* report) {
  if (c.mutations.empty()) return;
  Result<PropertyGraph> parsed = ParseCaseGraph(c);
  if (!parsed.ok()) return;  // graph parse parity is the main oracle's job

  auto base = std::make_shared<PropertyGraph>(std::move(parsed).value());
  GraphSnapshot base_snapshot(*base);
  DeltaOverlay overlay(base, base_snapshot);
  GraphSim sim(*base);

  // Lockstep: overlay and simulator must agree on every op's fate. A
  // disagreement poisons everything downstream, so stop at the first one.
  for (size_t i = 0; i < c.mutations.size(); ++i) {
    MutationBatch batch;
    batch.ops.push_back(c.mutations[i]);
    Result<size_t> via_overlay = overlay.Apply(batch);
    Result<bool> via_sim = sim.Apply(c.mutations[i]);
    ++report->checks;
    if (via_overlay.ok() != via_sim.ok() ||
        (!via_overlay.ok() &&
         via_overlay.error().code() != via_sim.error().code())) {
      report->Add(
          "mutation.op-status",
          "op " + std::to_string(i) + " (" + c.mutations[i].ToString() +
              "): overlay=" +
              StatusString(via_overlay.ok(),
                           via_overlay.ok() ? ErrorCode::kGeneric
                                            : via_overlay.error().code()) +
              " sim=" +
              StatusString(via_sim.ok(), via_sim.ok()
                                             ? ErrorCode::kGeneric
                                             : via_sim.error().code()));
      return;
    }
  }

  // Delta-vs-rebuild: the merged overlay view and a from-scratch rebuild
  // must render byte-identical.
  MergedGraph merged = GraphDeltaMerger::Merge(overlay);
  PropertyGraph rebuilt = sim.Build();
  const std::string merged_text = PropertyGraphToText(*merged.graph);
  const std::string rebuilt_text = PropertyGraphToText(rebuilt);
  ++report->checks;
  if (merged_text != rebuilt_text) {
    report->Add("mutation.delta-vs-rebuild",
                FirstDiff(merged_text, rebuilt_text));
    return;
  }

  // Compaction invariance: folding the log into a fresh base changes
  // nothing a query can see.
  const PropertyGraph compacted =
      GraphDeltaMerger::Replay(*base, base_snapshot, overlay.log());
  ++report->checks;
  if (PropertyGraphToText(compacted) != merged_text) {
    report->Add("mutation.compact-vs-merged",
                FirstDiff(PropertyGraphToText(compacted), merged_text));
  }

  // The case's query over the merged view vs over the rebuilt graph.
  Result<CanonicalResult> on_merged = EvalCanonical(*merged.graph, c, options);
  Result<CanonicalResult> on_rebuilt = EvalCanonical(rebuilt, c, options);
  ++report->checks;
  if (on_merged.ok() != on_rebuilt.ok()) {
    report->Add("mutation.query-on-merged",
                std::string("merged ") +
                    (on_merged.ok() ? "OK" : on_merged.error().message()) +
                    " vs rebuilt " +
                    (on_rebuilt.ok() ? "OK" : on_rebuilt.error().message()));
  } else if (!on_merged.ok()) {
    if (on_merged.error().code() != on_rebuilt.error().code()) {
      report->Add("mutation.query-on-merged",
                  std::string("error codes differ: ") +
                      ErrorCodeName(on_merged.error().code()) + " vs " +
                      ErrorCodeName(on_rebuilt.error().code()));
    }
  } else {
    std::vector<std::string> a = on_merged.value().rows;
    std::vector<std::string> b = on_rebuilt.value().rows;
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    if (a != b || on_merged.value().truncated != on_rebuilt.value().truncated) {
      report->Add("mutation.query-on-merged",
                  "merged " + std::to_string(a.size()) + " rows vs rebuilt " +
                      std::to_string(b.size()) + " rows");
    }
  }

  // Edge-addition monotonicity lifted to the write path: a purely additive
  // applied log can only grow an RPQ's answer set.
  if (c.language == QueryLanguage::kRpq && !overlay.log().empty()) {
    const bool adds_only = std::all_of(
        overlay.log().begin(), overlay.log().end(), [](const MutationOp& op) {
          return op.kind == MutationOp::Kind::kAddNode ||
                 op.kind == MutationOp::Kind::kAddEdge;
        });
    if (adds_only && on_merged.ok() && !on_merged.value().truncated) {
      Result<CanonicalResult> before = EvalCanonical(*base, c, options);
      if (before.ok() && !before.value().truncated) {
        std::vector<std::string> pre = before.value().rows;
        std::vector<std::string> post = on_merged.value().rows;
        std::sort(pre.begin(), pre.end());
        std::sort(post.begin(), post.end());
        ++report->checks;
        if (!std::includes(post.begin(), post.end(), pre.begin(),
                           pre.end())) {
          report->Add("mutation.monotonic-growth",
                      "additive log shrank the answer set: " +
                          std::to_string(pre.size()) + " -> " +
                          std::to_string(post.size()) + " rows");
        }
      }
    }
  }

  if (options.engine != nullptr && options.engine_checks) {
    CheckCachedAfterWrites(c, *base, rebuilt, options, report);
  }
}

}  // namespace fuzz
}  // namespace gqzoo
