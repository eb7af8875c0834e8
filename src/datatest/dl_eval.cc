#include "src/datatest/dl_eval.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <tuple>

#include "src/crpq/join.h"
#include "src/util/failpoint.h"

namespace gqzoo {

namespace {

// Interns valuations so configurations hash/compare by a small id.
class ValuationInterner {
 public:
  uint32_t Intern(const Valuation& nu) {
    auto [it, inserted] = ids_.try_emplace(nu, vals_.size());
    if (inserted) vals_.push_back(nu);
    return it->second;
  }
  const Valuation& Get(uint32_t id) const { return vals_[id]; }

 private:
  std::map<Valuation, uint32_t> ids_;
  std::vector<Valuation> vals_;
};

struct Config {
  uint32_t state;
  ObjectRef obj;
  uint32_t nu;

  bool operator<(const Config& o) const {
    return std::tie(state, obj, nu) < std::tie(o.state, o.obj, o.nu);
  }
};

// Calls `fn(candidate, is_edge_append)` for each object that may extend a
// path whose last object is `last` — the collapse candidate (`last`
// itself) and the append candidates — restricted to objects transition
// atom `atom` can possibly match: an atom only matches objects of its
// target kind (DlAtom::Matches rejects the rest), and an edge-targeting
// *label* atom only edges satisfying its predicate: the label case iterates
// exactly its label slice, while a test atom (whose properties any label
// may carry) scans the node's adjacency list in edge-id order.
template <typename Fn>
void ForEachOutEdge(const PropertyGraph& g, const GraphSnapshot& snap,
                    const DlAtom& atom, NodeId v, Fn fn) {
  if (atom.is_test) {
    for (EdgeId e : g.OutEdges(v)) {
      fn(ObjectRef::Edge(e), /*edge_append=*/true);
    }
    return;
  }
  snap.ForEachMatch(v, atom.pred, /*inverse=*/false,
                    [&](const GraphSnapshot::Hop& hop) {
                      fn(ObjectRef::Edge(hop.edge), /*edge_append=*/true);
                    });
}

template <typename Fn>
void ForEachSuccessor(const PropertyGraph& g, const GraphSnapshot& snap,
                      const DlAtom& atom, ObjectRef last, Fn fn) {
  fn(last, /*edge_append=*/false);  // collapse: p · path(o) = p
  if (last.is_node()) {
    if (atom.target != Atom::Target::kEdge) return;
    ForEachOutEdge(g, snap, atom, last.id, fn);
  } else {
    if (atom.target != Atom::Target::kNode) return;
    fn(ObjectRef::Node(g.Tgt(last.id)), /*edge_append=*/false);
  }
}

// Calls `fn(candidate, is_edge)` for each object that can start a path with
// src = u — the node u itself or an out-edge of u — restricted like
// ForEachSuccessor by the transition atom taken first.
template <typename Fn>
void ForEachStart(const PropertyGraph& g, const GraphSnapshot& snap,
                  const DlAtom& atom, NodeId u, Fn fn) {
  if (atom.target == Atom::Target::kNode) {
    fn(ObjectRef::Node(u), /*edge_append=*/false);
    return;
  }
  ForEachOutEdge(g, snap, atom, u, fn);
}

NodeId TgtOf(const PropertyGraph& g, ObjectRef o) {
  return o.is_node() ? o.id : g.Tgt(o.id);
}

// Depth-first enumeration of matching (path, µ), with optional
// simple/trail restriction and optional exact-length filter (for
// `shortest`).
class DlDfs {
 public:
  DlDfs(const PropertyGraph& g, const GraphSnapshot& snap, const DlNfa& nfa,
        NodeId target, PathMode mode, const EnumerationLimits& limits,
        size_t exact_length, std::vector<PathBinding>* out)
      : g_(g),
        snap_(snap),
        nfa_(nfa),
        target_(target),
        mode_(mode),
        limits_(limits),
        exact_length_(exact_length),
        out_(out),
        used_nodes_(g.NumNodes(), false),
        used_edges_(g.NumEdges(), false) {}

  EnumerationStats Run(NodeId start) {
    uint32_t nu0 = interner_.Intern(nfa_.InitialValuation());
    for (const DlNfa::Transition& t : nfa_.Out(nfa_.initial())) {
      if (stopped_) break;
      ForEachStart(g_, snap_, t.atom, start, [&](ObjectRef o, bool edge_append) {
        if (stopped_) return;
        TryStep(nfa_.initial(), o, nu0, t, /*collapse=*/false, edge_append,
                /*is_start=*/true);
      });
    }
    return stats_;
  }

 private:
  // Attempts transition `t` onto object `o` from valuation `nu_id`; on
  // match, recurses.
  void TryStep(uint32_t /*from_state*/, ObjectRef o, uint32_t nu_id,
               const DlNfa::Transition& t, bool collapse, bool edge_append,
               bool is_start) {
    Valuation next_nu;
    if (!t.atom.Matches(g_, o, interner_.Get(nu_id), &next_nu)) return;
    size_t new_len = path_len_ + (edge_append ? 1 : 0);
    if (new_len > limits_.max_length ||
        (exact_length_ != SIZE_MAX && new_len > exact_length_)) {
      stats_.truncated = stats_.truncated || exact_length_ == SIZE_MAX;
      return;
    }
    if (!collapse) {
      // Mode restrictions apply to the appended object.
      if (mode_ == PathMode::kSimple && o.is_node() && used_nodes_[o.id]) {
        return;
      }
      if (mode_ == PathMode::kTrail && o.is_edge() && used_edges_[o.id]) {
        return;
      }
    }
    uint32_t next_nu_id = interner_.Intern(next_nu);
    Config config{t.to, o, next_nu_id};
    auto stack_key = std::make_pair(config, new_len);
    if (on_stack_.count(stack_key) > 0) {
      // A zero-progress cycle: the same configuration at the same path
      // length. Continuing can only repeat the same (p, µ) — except when
      // captures fire on collapse steps (e.g. `([a^z])*` pumping one edge
      // into µ(z) forever), in which case the result set is infinite and we
      // truncate it here.
      if (!nfa_.capture_names().empty()) stats_.truncated = true;
      return;
    }
    on_stack_.insert(stack_key);

    // Apply the step.
    size_t saved_len = path_len_;
    path_len_ = new_len;
    bool appended = !collapse;
    if (appended) {
      path_objects_.push_back(o);
      if (o.is_node()) used_nodes_[o.id] = true;
      if (o.is_edge()) used_edges_[o.id] = true;
      if (!t.atom.is_test && t.atom.capture != DlNfa::kNoCapture) {
        mu_.Append(nfa_.capture_names()[t.atom.capture], o);
      }
    } else if (!t.atom.is_test && t.atom.capture != DlNfa::kNoCapture) {
      // A collapse step can still capture: [a^z][a^z] appends the same
      // edge twice to z (the µ concatenation semantics of Section 3.2.1).
      mu_.Append(nfa_.capture_names()[t.atom.capture], o);
    }

    Recurse(config, is_start);

    // Undo.
    if (appended) {
      if (!t.atom.is_test && t.atom.capture != DlNfa::kNoCapture) {
        PopCapture(t.atom.capture);
      }
      path_objects_.pop_back();
      if (o.is_node() && mode_ == PathMode::kSimple) used_nodes_[o.id] = false;
      if (o.is_edge()) used_edges_[o.id] = false;
    } else if (!t.atom.is_test && t.atom.capture != DlNfa::kNoCapture) {
      PopCapture(t.atom.capture);
    }
    path_len_ = saved_len;
    on_stack_.erase(stack_key);
  }

  void PopCapture(uint32_t capture) {
    const std::string& var = nfa_.capture_names()[capture];
    ObjectList& list = mu_.lists[var];
    list.pop_back();
    if (list.empty()) mu_.lists.erase(var);
  }

  void Recurse(const Config& config, bool /*is_start*/) {
    if (stopped_) return;
    if (limits_.cancel != nullptr && Failpoint::ShouldFail("datatest.recurse")) {
      limits_.cancel->Trip(StopCause::kStepBudget);
    }
    if (ShouldStop(limits_.cancel)) {
      stats_.cancelled = true;
      stats_.truncated = true;
      stopped_ = true;
      return;
    }
    // Emit if accepting at the target with the right length.
    if (nfa_.accepting(config.state) && TgtOf(g_, config.obj) == target_ &&
        (exact_length_ == SIZE_MAX || path_len_ == exact_length_)) {
      PathBinding binding{Path::MakeUnchecked(path_objects_), mu_};
      if (!ChargeRows(limits_.cancel) ||
          !ChargeMemory(limits_.cancel, ApproxBytes(binding))) {
        stats_.cancelled = true;
        stats_.truncated = true;
        stopped_ = true;
        return;
      }
      out_->push_back(std::move(binding));
      ++stats_.emitted;
      if (stats_.emitted >= limits_.max_results) {
        stats_.truncated = true;
        stopped_ = true;
        return;
      }
    }
    for (const DlNfa::Transition& t : nfa_.Out(config.state)) {
      if (stopped_) return;
      ForEachSuccessor(g_, snap_, t.atom, config.obj,
                       [&](ObjectRef o, bool edge_append) {
                         if (stopped_) return;
                         bool collapse = o == config.obj;
                         TryStep(config.state, o, config.nu, t, collapse,
                                 edge_append, /*is_start=*/false);
                       });
    }
  }

  const PropertyGraph& g_;
  const GraphSnapshot& snap_;
  const DlNfa& nfa_;
  NodeId target_;
  PathMode mode_;
  const EnumerationLimits& limits_;
  size_t exact_length_;
  std::vector<PathBinding>* out_;
  std::vector<bool> used_nodes_;
  std::vector<bool> used_edges_;
  ValuationInterner interner_;
  std::vector<ObjectRef> path_objects_;
  Binding mu_;
  size_t path_len_ = 0;
  std::set<std::pair<Config, size_t>> on_stack_;
  EnumerationStats stats_;
  bool stopped_ = false;
};

}  // namespace

std::vector<NodeId> DlEvaluator::ReachableFrom(
    NodeId u, const CancellationToken* cancel) const {
  ValuationInterner interner;
  uint32_t nu0 = interner.Intern(nfa_->InitialValuation());
  std::set<Config> visited;
  std::deque<Config> queue;
  std::set<NodeId> reached;

  // The configuration space (state × object × valuation) is the working
  // set of this product reachability; ~48 B per visited entry (set node +
  // Config + the queue slot it transits through).
  ScopedMemoryCharge visited_bytes(cancel);
  bool out_of_budget = false;

  auto try_push = [&](const DlNfa::Transition& t, ObjectRef o,
                      uint32_t nu_id) {
    if (out_of_budget) return;
    Valuation next;
    if (!t.atom.Matches(*g_, o, interner.Get(nu_id), &next)) return;
    Config c{t.to, o, interner.Intern(next)};
    if (visited.insert(c).second) {
      if (!visited_bytes.Charge(48)) {
        out_of_budget = true;
        return;
      }
      queue.push_back(c);
    }
  };

  // Transition-major expansion: each transition enumerates only the
  // candidates its atom can match (its label slice for label atoms).
  for (const DlNfa::Transition& t : nfa_->Out(nfa_->initial())) {
    ForEachStart(*g_, *snapshot_, t.atom, u,
                 [&](ObjectRef o, bool) { try_push(t, o, nu0); });
  }
  while (!queue.empty() && !out_of_budget) {
    if (ShouldStop(cancel)) break;
    Config c = queue.front();
    queue.pop_front();
    if (nfa_->accepting(c.state)) reached.insert(TgtOf(*g_, c.obj));
    for (const DlNfa::Transition& t : nfa_->Out(c.state)) {
      ForEachSuccessor(*g_, *snapshot_, t.atom, c.obj,
                       [&](ObjectRef o, bool) { try_push(t, o, c.nu); });
    }
  }
  return std::vector<NodeId>(reached.begin(), reached.end());
}

std::vector<std::pair<NodeId, NodeId>> DlEvaluator::AllPairs(
    const CancellationToken* cancel) const {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (NodeId u = 0; u < g_->NumNodes(); ++u) {
    if (ShouldStop(cancel)) break;
    for (NodeId v : ReachableFrom(u, cancel)) pairs.emplace_back(u, v);
  }
  return pairs;
}

size_t DlEvaluator::ShortestLength(NodeId u, NodeId v,
                                   const CancellationToken* cancel) const {
  ValuationInterner interner;
  uint32_t nu0 = interner.Intern(nfa_->InitialValuation());
  std::map<Config, size_t> dist;
  std::deque<std::pair<Config, size_t>> queue;  // 0/1-weighted BFS

  // ~64 B per distinct configuration in the distance map.
  ScopedMemoryCharge dist_bytes(cancel);
  bool out_of_budget = false;

  auto relax = [&](const Config& c, size_t d, bool front) {
    if (out_of_budget) return;
    auto it = dist.find(c);
    if (it != dist.end() && it->second <= d) return;
    if (it == dist.end() && !dist_bytes.Charge(64)) {
      out_of_budget = true;
      return;
    }
    dist[c] = d;
    if (front) {
      queue.emplace_front(c, d);
    } else {
      queue.emplace_back(c, d);
    }
  };

  auto expand = [&](const DlNfa::Transition& t, ObjectRef o, uint32_t nu_id,
                    size_t d, bool edge_append) {
    Valuation next;
    if (!t.atom.Matches(*g_, o, interner.Get(nu_id), &next)) return;
    Config c{t.to, o, interner.Intern(next)};
    relax(c, d + (edge_append ? 1 : 0), !edge_append);
  };

  for (const DlNfa::Transition& t : nfa_->Out(nfa_->initial())) {
    ForEachStart(*g_, *snapshot_, t.atom, u,
                 [&](ObjectRef o, bool edge_append) {
                   expand(t, o, nu0, 0, edge_append);
                 });
  }
  size_t best = SIZE_MAX;
  while (!queue.empty() && !out_of_budget) {
    if (ShouldStop(cancel)) break;
    auto [c, d] = queue.front();
    queue.pop_front();
    if (dist[c] != d) continue;  // stale entry
    if (d >= best) continue;
    if (nfa_->accepting(c.state) && TgtOf(*g_, c.obj) == v) {
      best = std::min(best, d);
      continue;
    }
    for (const DlNfa::Transition& t : nfa_->Out(c.state)) {
      ForEachSuccessor(*g_, *snapshot_, t.atom, c.obj,
                       [&](ObjectRef o, bool edge_append) {
                         bool is_edge_append = edge_append && !(o == c.obj);
                         expand(t, o, c.nu, d, is_edge_append);
                       });
    }
  }
  return best;
}

std::vector<PathBinding> DlEvaluator::CollectModePaths(
    NodeId u, NodeId v, PathMode mode, const EnumerationLimits& limits,
    EnumerationStats* stats) const {
  std::vector<PathBinding> results;
  EnumerationStats local;
  if (mode == PathMode::kShortest) {
    size_t best = ShortestLength(u, v, limits.cancel);
    if (best != SIZE_MAX) {
      EnumerationLimits bounded = limits;
      bounded.max_length = std::min(bounded.max_length, best);
      DlDfs dfs(*g_, *snapshot_, *nfa_, v, PathMode::kAll, bounded, best,
                &results);
      local = dfs.Run(u);
    }
  } else {
    DlDfs dfs(*g_, *snapshot_, *nfa_, v, mode, limits, SIZE_MAX, &results);
    local = dfs.Run(u);
  }
  // Skip ordering cancelled (partial, to-be-discarded) results so
  // deadlines stay prompt.
  if (!local.cancelled) {
    std::sort(results.begin(), results.end());
    results.erase(std::unique(results.begin(), results.end()), results.end());
  }
  if (stats != nullptr) *stats = local;
  return results;
}

Result<CrpqResult> EvalDlCrpq(const PropertyGraph& g, const Crpq& q,
                              const DlCrpqEvalOptions& options) {
  if (options.snapshot == nullptr) {
    return Error(ErrorCode::kInvalidArgument,
                 "dl-CRPQ evaluation needs a graph snapshot");
  }
  using crpq_internal::Dedupe;
  using crpq_internal::NaturalJoin;
  using crpq_internal::ProjectHead;
  using crpq_internal::Relation;

  Result<bool> valid = q.Validate();
  if (!valid.ok()) return valid.error();
  if (q.atoms.empty()) return Error("dl-CRPQ has no atoms");

  // Compile (or borrow from the plan) every atom's automaton up front, and
  // validate constants in textual order so errors are independent of the
  // planner's join order.
  std::vector<DlNfa> local_nfas;
  const std::vector<DlNfa>* nfas = options.atom_nfas;
  if (nfas == nullptr || nfas->size() != q.atoms.size()) {
    local_nfas.reserve(q.atoms.size());
    for (const CrpqAtom& atom : q.atoms) {
      local_nfas.push_back(DlNfa::FromRegex(*atom.regex, g));
    }
    nfas = &local_nfas;
  }
  for (const CrpqAtom& atom : q.atoms) {
    for (const CrpqTerm* t : {&atom.from, &atom.to}) {
      if (t->is_constant && !g.FindNode(t->name).has_value()) {
        return Error("unknown node constant '@" + t->name + "'");
      }
    }
  }

  const std::vector<size_t>* order = options.join_order;
  const bool use_order =
      order != nullptr && order->size() == q.atoms.size();

  const rel::WcojSpec* wcoj = options.wcoj;
  std::vector<bool> in_core(q.atoms.size(), false);
  if (wcoj != nullptr) {
    for (size_t i : wcoj->conjuncts) {
      if (i < q.atoms.size()) in_core[i] = true;
    }
  }

  bool truncated = false;
  Relation joined;
  bool first = true;
  if (wcoj != nullptr) {
    joined = crpq_internal::WcojRelation(*options.snapshot, *wcoj,
                                         options.cancel);
    first = false;
  }
  for (size_t step = 0; step < q.atoms.size(); ++step) {
    const size_t atom_idx = use_order ? (*order)[step] : step;
    if (wcoj != nullptr && in_core[atom_idx]) continue;  // wcoj serves it
    const CrpqAtom& atom = q.atoms[atom_idx];
    if (ShouldStop(options.cancel)) {
      truncated = true;
      break;
    }
    if (!first && joined.rows.empty()) break;  // conjunction is empty
    const DlNfa& nfa = (*nfas)[atom_idx];
    DlEvaluator evaluator(g, nfa, options.snapshot);
    std::vector<std::string> list_vars = atom.regex->CaptureVariables();

    auto resolve = [&](const CrpqTerm& t) -> std::optional<NodeId> {
      return t.is_constant ? g.FindNode(t.name) : std::nullopt;
    };
    std::optional<NodeId> from_const = resolve(atom.from);
    std::optional<NodeId> to_const = resolve(atom.to);

    std::vector<std::pair<NodeId, NodeId>> pairs;
    if (from_const.has_value()) {
      NodeId u = *from_const;
      for (NodeId v : evaluator.ReachableFrom(u, options.cancel)) {
        pairs.emplace_back(u, v);
      }
    } else {
      pairs = evaluator.AllPairs(options.cancel);
    }
    if (to_const.has_value()) {
      NodeId v = *to_const;
      std::erase_if(pairs, [v](const auto& p) { return p.second != v; });
    }
    const bool same_var = !atom.from.is_constant && !atom.to.is_constant &&
                          atom.from.name == atom.to.name;
    if (same_var) {
      std::erase_if(pairs, [](const auto& p) { return p.first != p.second; });
    }

    Relation rel;
    if (!atom.from.is_constant) rel.schema.push_back(atom.from.name);
    if (!atom.to.is_constant && !same_var) rel.schema.push_back(atom.to.name);
    for (const std::string& z : list_vars) rel.schema.push_back(z);

    EnumerationLimits limits;
    limits.max_results = options.max_bindings_per_pair;
    limits.max_length = options.max_path_length;
    limits.cancel = options.cancel;

    for (const auto& [u, v] : pairs) {
      if (ShouldStop(options.cancel)) {
        truncated = true;
        break;
      }
      std::vector<CrpqValue> prefix;
      if (!atom.from.is_constant) prefix.push_back(u);
      if (!atom.to.is_constant && !same_var) prefix.push_back(v);
      if (list_vars.empty()) {
        if (!ChargeMemory(options.cancel,
                          prefix.size() * sizeof(CrpqValue) + 32)) {
          truncated = true;
          break;
        }
        rel.rows.push_back(std::move(prefix));
        continue;
      }
      EnumerationStats stats;
      std::vector<PathBinding> bindings =
          evaluator.CollectModePaths(u, v, atom.mode, limits, &stats);
      if (stats.truncated) truncated = true;
      if (stats.cancelled) break;
      std::set<std::vector<CrpqValue>> seen;
      for (const PathBinding& pb : bindings) {
        std::vector<CrpqValue> row = prefix;
        for (const std::string& z : list_vars) row.push_back(pb.mu.Get(z));
        if (seen.insert(row).second) {
          if (!ChargeMemory(options.cancel,
                            row.size() * sizeof(CrpqValue) + 32)) {
            truncated = true;
            break;
          }
          rel.rows.push_back(std::move(row));
        }
      }
      if (ShouldStop(options.cancel)) {
        truncated = true;
        break;
      }
    }
    // A relation left partial by a trip is about to be thrown away by the
    // engine; don't burn time sorting it (same contract as the RPQ path).
    Dedupe(&rel, options.cancel);

    if (first) {
      joined = std::move(rel);
      first = false;
    } else {
      joined = NaturalJoin(joined, rel, options.cancel, options.use_batch);
    }
    if (joined.rows.empty()) break;
  }

  CrpqResult result;
  result.head = q.head;
  result.truncated = truncated;
  if (!joined.rows.empty()) {
    ProjectHead(joined, q.head, &result.rows, options.cancel,
                options.use_batch);
  }
  return result;
}

}  // namespace gqzoo
