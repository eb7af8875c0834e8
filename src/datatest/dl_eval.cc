#include "src/datatest/dl_eval.h"

#include <algorithm>
#include <map>

#include "src/automata/product_search.h"
#include "src/crpq/eval.h"

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

// Calls `fn(candidate)` for each out-edge of `v` that transition atom
// `atom` can possibly match: a *label* atom iterates its label runs, a test
// atom (whose properties any label may carry) the node's whole out-slice in
// edge-id order, which fixes the paths a truncated enumeration keeps.
template <typename Fn>
void ForEachOutEdge(const GraphSnapshot& snap, const DlAtom& atom, NodeId v,
                    Fn fn) {
  if (atom.is_test) {
    for (EdgeId e : snap.OutEdgesById(v)) fn(ObjectRef::Edge(e));
    return;
  }
  snap.ForEachMatch(v, atom.pred, /*inverse=*/false,
                    [&](const GraphSnapshot::Hop& hop) {
                      fn(ObjectRef::Edge(hop.edge));
                    });
}

// The dl step: configurations (NFA state, last path object, valuation ν),
// the register-automaton product of Section 6.4's "Data Filters". A step
// either *appends* an object (node → one of its out-edges; edge → its
// target node) or *collapses*, re-matching the last object by the paper's
// `p · path(o) = p` rule, which is how multi-atom constraints like
// `[a^z][date > x][x := date]` apply to a single edge. Candidates are
// restricted to objects of the atom's target kind (DlAtom::Matches
// rejects the rest). Valuations are interned, so states compare by id.
class DlStep {
 public:
  struct State {
    uint32_t state;
    ObjectRef obj;
    uint32_t nu;
    bool operator==(const State&) const = default;
  };
  struct StateHash {
    size_t operator()(const State& s) const {
      return HashCombine(HashCombine(s.state, ObjectRefHash()(s.obj)), s.nu);
    }
  };
  static constexpr bool kUnitCost = false;

  DlStep(const PropertyGraph& g, const GraphSnapshot& snap, const DlNfa& nfa)
      : g_(g), snap_(snap), nfa_(nfa) {
    nu0_ = interner_.Intern(nfa.InitialValuation());
  }

  size_t NumNodes() const { return g_.NumNodes(); }
  size_t NumEdges() const { return g_.NumEdges(); }
  bool Accepting(const State& s) const { return nfa_.accepting(s.state); }
  NodeId Endpoint(const State& s) const {
    return s.obj.is_node() ? s.obj.id : g_.Tgt(s.obj.id);
  }
  const std::vector<std::string>& capture_names() const {
    return nfa_.capture_names();
  }

  // A path with src = u starts with u itself or with an out-edge of u,
  // whichever kind the first transition's atom targets.
  template <typename F>
  void Start(NodeId u, F&& f) {
    for (const DlNfa::Transition& t : nfa_.Out(nfa_.initial())) {
      if (t.atom.target == Atom::Target::kNode) {
        Try(t, ObjectRef::Node(u), nu0_, /*collapse=*/false, f);
      } else {
        ForEachOutEdge(snap_, t.atom, u, [&](ObjectRef o) {
          Try(t, o, nu0_, /*collapse=*/false, f);
        });
      }
    }
  }

  template <typename F>
  void Expand(const State& s, F&& f) {
    for (const DlNfa::Transition& t : nfa_.Out(s.state)) {
      Try(t, s.obj, s.nu, /*collapse=*/true, f);
      if (s.obj.is_node()) {
        if (t.atom.target != Atom::Target::kEdge) continue;
        ForEachOutEdge(snap_, t.atom, s.obj.id, [&](ObjectRef o) {
          Try(t, o, s.nu, /*collapse=*/false, f);
        });
      } else if (t.atom.target == Atom::Target::kNode) {
        Try(t, ObjectRef::Node(g_.Tgt(s.obj.id)), s.nu, /*collapse=*/false,
            f);
      }
    }
  }

 private:
  // Takes transition `t` onto object `o` from valuation `nu` if its atom
  // matches there.
  template <typename F>
  void Try(const DlNfa::Transition& t, ObjectRef o, uint32_t nu,
           bool collapse, F& f) {
    Valuation next;
    if (!t.atom.Matches(g_, o, interner_.Get(nu), &next)) return;
    // Only an assignment changes ν; any other match keeps its id.
    const bool assigns =
        t.atom.is_test && t.atom.test_kind == ElementTest::Kind::kAssign;
    ProductArc<State> arc;
    arc.to = State{t.to, o, assigns ? interner_.Intern(next) : nu};
    if (!collapse) (o.is_edge() ? arc.edge : arc.node) = o.id;
    // A collapse step can still capture: [a^z][a^z] appends the same edge
    // twice to z (the µ concatenation semantics of Section 3.2.1).
    if (!t.atom.is_test && t.atom.capture != DlNfa::kNoCapture) {
      arc.capture = t.atom.capture;
      arc.captured = o;
    }
    f(arc);
  }

  const PropertyGraph& g_;
  const GraphSnapshot& snap_;
  const DlNfa& nfa_;
  ValuationInterner interner_;
  uint32_t nu0_;
};

}  // namespace

std::vector<NodeId> DlEvaluator::ReachableFrom(
    NodeId u, const CancellationToken* cancel) const {
  DlStep step(*g_, *snapshot_, *nfa_);
  SparseVisited<DlStep> visited;
  std::vector<NodeId> reached;  // one per accepting state settled
  ProductBfs(
      step, visited, std::span<const NodeId>(&u, 1), cancel,
      [&](const DlStep::State& s, uint32_t) {
        if (step.Accepting(s)) reached.push_back(step.Endpoint(s));
        return true;
      });
  std::sort(reached.begin(), reached.end());
  reached.erase(std::unique(reached.begin(), reached.end()), reached.end());
  return reached;
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
  DlStep step(*g_, *snapshot_, *nfa_);
  SparseVisited<DlStep> visited;
  size_t best = SIZE_MAX;
  // States settle in nondecreasing length: the first accepting one at v is
  // a shortest witness.
  ProductBfs(
      step, visited, std::span<const NodeId>(&u, 1), cancel,
      [&](const DlStep::State& s, uint32_t length) {
        if (!step.Accepting(s) || step.Endpoint(s) != v) return true;
        best = length;
        return false;
      });
  return best;
}

std::vector<PathBinding> DlEvaluator::CollectModePaths(
    NodeId u, NodeId v, PathMode mode, const EnumerationLimits& limits,
    EnumerationStats* stats) const {
  size_t exact_length = SIZE_MAX;
  if (mode == PathMode::kShortest) {
    exact_length = ShortestLength(u, v, limits.cancel);
    if (exact_length == SIZE_MAX) {
      if (stats != nullptr) *stats = EnumerationStats();
      return {};
    }
  }
  DlStep step(*g_, *snapshot_, *nfa_);
  return CollectProductPaths(step, u, v, mode, limits, exact_length, stats);
}

Result<CrpqResult> EvalDlCrpq(const PropertyGraph& g, const Crpq& q,
                              const DlCrpqEvalOptions& options) {
  if (std::optional<Error> e =
          crpq_internal::CheckConjunction(q, options.snapshot, "dl-CRPQ")) {
    return *e;
  }
  // Compile (or borrow from the plan) every atom's automaton up front.
  std::vector<DlNfa> local_nfas;
  const std::vector<DlNfa>* nfas = options.atom_nfas;
  if (nfas == nullptr || nfas->size() != q.atoms.size()) {
    local_nfas.reserve(q.atoms.size());
    for (const CrpqAtom& atom : q.atoms) {
      local_nfas.push_back(DlNfa::FromRegex(*atom.regex, g));
    }
    nfas = &local_nfas;
  }
  auto evaluator = [&](size_t i) {
    return DlEvaluator(g, (*nfas)[i], options.snapshot);
  };

  crpq_internal::AtomSearch search;
  search.pairs = [&](size_t i, std::optional<NodeId> from) {
    if (!from.has_value()) return evaluator(i).AllPairs(options.cancel);
    std::vector<std::pair<NodeId, NodeId>> pairs;
    for (NodeId v : evaluator(i).ReachableFrom(*from, options.cancel)) {
      pairs.emplace_back(*from, v);
    }
    return pairs;
  };
  search.paths = [&](size_t i, NodeId u, NodeId v,
                     const EnumerationLimits& limits,
                     EnumerationStats* stats) {
    return evaluator(i).CollectModePaths(u, v, q.atoms[i].mode, limits,
                                         stats);
  };

  CrpqEvalOptions conjunction;
  conjunction.max_bindings_per_pair = options.max_bindings_per_pair;
  conjunction.max_path_length = options.max_path_length;
  conjunction.cancel = options.cancel;
  conjunction.snapshot = options.snapshot;
  conjunction.join_order = options.join_order;
  conjunction.wcoj = options.wcoj;
  conjunction.use_batch = options.use_batch;
  return crpq_internal::EvalConjunction(g.skeleton(), q, conjunction, search);
}

}  // namespace gqzoo
