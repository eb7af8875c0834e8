#include "src/fuzz/reference.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <string>

namespace gqzoo {
namespace fuzz {

namespace {

/// Work budget of one reference call, in matcher steps plus walk
/// extensions plus variable assignments tried.
constexpr size_t kMaxSteps = 4000000;

bool AtomMatchesEdge(const EdgeLabeledGraph& g, const Atom& atom, EdgeId e) {
  if (atom.target != Atom::Target::kEdge) return false;
  const std::string& label = g.LabelName(g.EdgeLabel(e));
  switch (atom.label_kind) {
    case Atom::LabelKind::kOne:
      return label == atom.labels[0];
    case Atom::LabelKind::kNegSet:
      return std::find(atom.labels.begin(), atom.labels.end(), label) ==
             atom.labels.end();
    case Atom::LabelKind::kAny:
      return true;
    case Atom::LabelKind::kTest:
      return false;
  }
  return false;
}

// --- [[R]]_G as binary relations over nodes.

using Relation = std::vector<std::vector<bool>>;

Relation Identity(size_t n) {
  Relation r(n, std::vector<bool>(n, false));
  for (size_t i = 0; i < n; ++i) r[i][i] = true;
  return r;
}

Relation Union(Relation a, const Relation& b) {
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < a.size(); ++j) {
      if (b[i][j]) a[i][j] = true;
    }
  }
  return a;
}

Relation Compose(const Relation& a, const Relation& b) {
  const size_t n = a.size();
  Relation out(n, std::vector<bool>(n, false));
  for (size_t i = 0; i < n; ++i) {
    for (size_t k = 0; k < n; ++k) {
      if (!a[i][k]) continue;
      for (size_t j = 0; j < n; ++j) {
        if (b[k][j]) out[i][j] = true;
      }
    }
  }
  return out;
}

// R+ as the least fixpoint of T = R ∪ T∘R.
Relation TransitiveClosure(const Relation& r) {
  Relation t = r;
  for (;;) {
    Relation next = Union(t, Compose(t, r));
    if (next == t) return t;
    t = std::move(next);
  }
}

Relation Denote(const EdgeLabeledGraph& g, const Regex& r) {
  const size_t n = g.NumNodes();
  switch (r.op()) {
    case Regex::Op::kEpsilon:
      return Identity(n);
    case Regex::Op::kAtom: {
      Relation out(n, std::vector<bool>(n, false));
      for (EdgeId e = 0; e < g.NumEdges(); ++e) {
        if (!AtomMatchesEdge(g, r.atom(), e)) continue;
        if (r.atom().inverse) {
          out[g.Tgt(e)][g.Src(e)] = true;
        } else {
          out[g.Src(e)][g.Tgt(e)] = true;
        }
      }
      return out;
    }
    case Regex::Op::kConcat:
      return Compose(Denote(g, *r.left()), Denote(g, *r.right()));
    case Regex::Op::kUnion:
      return Union(Denote(g, *r.left()), Denote(g, *r.right()));
    case Regex::Op::kOptional:
      return Union(Identity(n), Denote(g, *r.child()));
    case Regex::Op::kStar:
      return Union(Identity(n), TransitiveClosure(Denote(g, *r.child())));
    case Regex::Op::kPlus:
      return TransitiveClosure(Denote(g, *r.child()));
  }
  return Relation(n, std::vector<bool>(n, false));
}

// --- Label words against the AST, by backtracking.

// Enumerates every way the regex consumes a whole word of edges, with the
// capture binding each way yields, and notes whether the word could be
// extended into a match (some atom asked for a symbol past its end).
class WordMatcher {
 public:
  WordMatcher(const EdgeLabeledGraph& g, const std::vector<EdgeId>& word,
              size_t* steps)
      : g_(g), word_(word), steps_(steps) {}

  /// False when the work budget ran out.
  bool Run(const Regex& r) {
    Match(r, 0, [&](size_t j) {
      if (j == word_.size()) bindings_.insert(mu_);
    });
    return !exhausted_;
  }

  const std::set<Binding>& bindings() const { return bindings_; }
  bool extendable() const { return extendable_; }

 private:
  using Cont = std::function<void(size_t)>;

  // Tries every way `r` consumes word[i, j) and calls `k(j)` for each,
  // with mu_ extended by the captures of that way.
  void Match(const Regex& r, size_t i, const Cont& k) {
    if (exhausted_) return;
    if (++*steps_ > kMaxSteps) {
      exhausted_ = true;
      return;
    }
    switch (r.op()) {
      case Regex::Op::kEpsilon:
        k(i);
        return;
      case Regex::Op::kAtom: {
        if (i == word_.size()) {
          extendable_ = true;
          return;
        }
        const Atom& atom = r.atom();
        if (atom.inverse || !AtomMatchesEdge(g_, atom, word_[i])) return;
        if (!atom.capture.has_value()) {
          k(i + 1);
          return;
        }
        mu_.Append(*atom.capture, ObjectRef::Edge(word_[i]));
        k(i + 1);
        ObjectList& list = mu_.lists[*atom.capture];
        list.pop_back();
        if (list.empty()) mu_.lists.erase(*atom.capture);
        return;
      }
      case Regex::Op::kConcat:
        Match(*r.left(), i, [&](size_t j) { Match(*r.right(), j, k); });
        return;
      case Regex::Op::kUnion:
        Match(*r.left(), i, k);
        Match(*r.right(), i, k);
        return;
      case Regex::Op::kOptional:
        k(i);
        Match(*r.child(), i, k);
        return;
      case Regex::Op::kStar:
        Iterate(*r.child(), i, k);
        return;
      case Regex::Op::kPlus:
        Match(*r.child(), i, [&](size_t j) { Iterate(*r.child(), j, k); });
        return;
    }
  }

  // Zero or more further iterations of `body` from position i. An
  // iteration that consumes nothing changes neither the position nor the
  // binding, so only consuming iterations go round again.
  void Iterate(const Regex& body, size_t i, const Cont& k) {
    k(i);
    Match(body, i, [&](size_t j) {
      if (j > i) Iterate(body, j, k);
    });
  }

  const EdgeLabeledGraph& g_;
  const std::vector<EdgeId>& word_;
  size_t* steps_;
  Binding mu_;
  std::set<Binding> bindings_;
  bool extendable_ = false;
  bool exhausted_ = false;
};

// Every (path, µ) of [[R]]_G with src(path) = u and at most `max_length`
// edges, keyed by tgt(path). Walks are enumerated over OutEdges; a walk is
// extended only while its word can still grow into a match. False when
// the work budget ran out.
bool MatchingWalksFrom(const EdgeLabeledGraph& g, const Regex& r, NodeId u,
                       size_t max_length, size_t* steps,
                       std::map<NodeId, std::vector<PathBinding>>* out) {
  std::vector<EdgeId> word;
  std::vector<ObjectRef> objects = {ObjectRef::Node(u)};
  std::function<bool(NodeId)> walk = [&](NodeId at) {
    WordMatcher matcher(g, word, steps);
    if (!matcher.Run(r)) return false;
    for (const Binding& mu : matcher.bindings()) {
      (*out)[at].push_back({Path::MakeUnchecked(objects), mu});
    }
    if (!matcher.extendable() || word.size() >= max_length) return true;
    for (EdgeId e : g.OutEdges(at)) {
      if (++*steps > kMaxSteps) return false;
      word.push_back(e);
      objects.push_back(ObjectRef::Edge(e));
      objects.push_back(ObjectRef::Node(g.Tgt(e)));
      const bool ok = walk(g.Tgt(e));
      objects.resize(objects.size() - 2);
      word.pop_back();
      if (!ok) return false;
    }
    return true;
  };
  return walk(u);
}

// One atom of a CRPQ as a table: for each endpoint pair (u, v) it admits,
// the distinct tuples of its list variables' values (one empty tuple for
// atoms without list variables).
struct AtomTable {
  std::optional<NodeId> from_const;
  std::optional<NodeId> to_const;
  std::vector<std::string> list_vars;
  std::map<std::pair<NodeId, NodeId>, std::set<std::vector<ObjectList>>>
      tuples;
};

}  // namespace

std::vector<std::pair<NodeId, NodeId>> ReferenceRpq(const EdgeLabeledGraph& g,
                                                    const Regex& regex) {
  const Relation r = Denote(g, regex);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      if (r[u][v]) pairs.emplace_back(u, v);
    }
  }
  return pairs;
}

std::vector<PathBinding> ApplyMode(PathMode mode,
                                   std::vector<PathBinding> bindings) {
  switch (mode) {
    case PathMode::kAll:
      break;
    case PathMode::kShortest: {
      size_t shortest = SIZE_MAX;
      for (const PathBinding& pb : bindings) {
        shortest = std::min(shortest, pb.path.Length());
      }
      std::erase_if(bindings, [&](const PathBinding& pb) {
        return pb.path.Length() != shortest;
      });
      break;
    }
    case PathMode::kSimple:
      std::erase_if(bindings,
                    [](const PathBinding& pb) { return !pb.path.IsSimple(); });
      break;
    case PathMode::kTrail:
      std::erase_if(bindings,
                    [](const PathBinding& pb) { return !pb.path.IsTrail(); });
      break;
  }
  return bindings;
}

std::optional<std::vector<PathBinding>> ReferenceModePaths(
    const EdgeLabeledGraph& g, const Regex& regex, NodeId u, NodeId v,
    PathMode mode, size_t max_length) {
  size_t steps = 0;
  std::map<NodeId, std::vector<PathBinding>> walks;
  if (!MatchingWalksFrom(g, regex, u, max_length, &steps, &walks)) {
    return std::nullopt;
  }
  std::vector<PathBinding> paths = ApplyMode(mode, std::move(walks[v]));
  std::sort(paths.begin(), paths.end());
  paths.erase(std::unique(paths.begin(), paths.end()), paths.end());
  return paths;
}

std::optional<std::vector<std::vector<CrpqValue>>> ReferenceCrpq(
    const EdgeLabeledGraph& g, const Crpq& q, size_t max_path_length) {
  size_t steps = 0;
  std::vector<AtomTable> tables;
  for (const CrpqAtom& atom : q.atoms) {
    AtomTable table;
    for (const auto& [term, slot] :
         {std::pair{&atom.from, &table.from_const},
          std::pair{&atom.to, &table.to_const}}) {
      if (!term->is_constant) continue;
      *slot = g.FindNode(term->name);
      if (!slot->has_value()) return std::nullopt;
    }
    table.list_vars = atom.regex->CaptureVariables();
    if (table.list_vars.empty()) {
      // Modes act only through list variables: the atom holds on [[R]]_G.
      for (const auto& pair : ReferenceRpq(g, *atom.regex)) {
        table.tuples[pair].insert(std::vector<ObjectList>());
      }
    } else {
      for (NodeId u = 0; u < g.NumNodes(); ++u) {
        if (table.from_const.has_value() && *table.from_const != u) continue;
        std::map<NodeId, std::vector<PathBinding>> walks;
        if (!MatchingWalksFrom(g, *atom.regex, u, max_path_length, &steps,
                               &walks)) {
          return std::nullopt;
        }
        for (auto& [v, bindings] : walks) {
          for (const PathBinding& pb :
               ApplyMode(atom.mode, std::move(bindings))) {
            std::vector<ObjectList> tuple;
            for (const std::string& z : table.list_vars) {
              tuple.push_back(pb.mu.Get(z));
            }
            table.tuples[{u, v}].insert(std::move(tuple));
          }
        }
      }
    }
    tables.push_back(std::move(table));
  }

  // Every assignment of the endpoint variables to nodes, checking each
  // atom as soon as both of its endpoints are fixed.
  const std::vector<std::string> vars = q.EndpointVariables();
  auto var_index = [&](const std::string& name) {
    return static_cast<size_t>(std::find(vars.begin(), vars.end(), name) -
                               vars.begin());
  };
  std::vector<NodeId> assignment(vars.size());
  std::vector<std::vector<size_t>> ready_after(vars.size() + 1);
  for (size_t a = 0; a < q.atoms.size(); ++a) {
    size_t last = 0;
    for (const CrpqTerm* t : {&q.atoms[a].from, &q.atoms[a].to}) {
      if (!t->is_constant) last = std::max(last, var_index(t->name) + 1);
    }
    ready_after[last].push_back(a);
  }
  auto endpoints = [&](size_t a) {
    const AtomTable& t = tables[a];
    const CrpqAtom& atom = q.atoms[a];
    NodeId u = t.from_const.has_value() ? *t.from_const
                                        : assignment[var_index(atom.from.name)];
    NodeId v = t.to_const.has_value() ? *t.to_const
                                      : assignment[var_index(atom.to.name)];
    return std::pair{u, v};
  };
  auto holds = [&](size_t a) {
    return tables[a].tuples.count(endpoints(a)) > 0;
  };

  std::set<std::vector<CrpqValue>> rows;
  std::map<std::string, ObjectList> lists;
  // Picks one tuple per atom (list variables are never shared between
  // atoms, so the choices are independent), then emits the head row.
  std::function<void(size_t)> choose = [&](size_t a) {
    if (a == tables.size()) {
      std::vector<CrpqValue> row;
      for (const std::string& h : q.head) {
        size_t i = var_index(h);
        if (i < vars.size()) {
          row.emplace_back(assignment[i]);
        } else {
          row.emplace_back(lists[h]);
        }
      }
      rows.insert(std::move(row));
      return;
    }
    for (const std::vector<ObjectList>& tuple :
         tables[a].tuples.at(endpoints(a))) {
      for (size_t z = 0; z < tuple.size(); ++z) {
        lists[tables[a].list_vars[z]] = tuple[z];
      }
      choose(a + 1);
    }
  };
  std::function<bool(size_t)> assign = [&](size_t i) {
    if (++steps > kMaxSteps) return false;
    for (size_t a : ready_after[i]) {
      if (!holds(a)) return true;
    }
    if (i == vars.size()) {
      choose(0);
      return true;
    }
    for (NodeId n = 0; n < g.NumNodes(); ++n) {
      assignment[i] = n;
      if (!assign(i + 1)) return false;
    }
    return true;
  };
  if (!assign(0)) return std::nullopt;
  return std::vector<std::vector<CrpqValue>>(rows.begin(), rows.end());
}

}  // namespace fuzz
}  // namespace gqzoo
