#include "src/lists/list_functions.h"

#include <algorithm>

#include "src/graph/csr.h"

namespace gqzoo {

Value Reduce(const Value& init, const std::function<Value(ObjectRef)>& iota,
             const std::function<Value(ObjectRef, const Value&)>& f,
             const ObjectList& list) {
  if (list.empty()) return init;
  if (list.size() == 1) return iota(list[0]);
  // f(head, reduce(tail)): fold from the right.
  Value acc = iota(list.back());
  for (size_t i = list.size() - 1; i-- > 0;) {
    acc = f(list[i], acc);
  }
  return acc;
}

std::function<Value(ObjectRef)> PropertyIota(const PropertyGraph& g,
                                             const std::string& prop,
                                             Value missing) {
  return [&g, prop, missing](ObjectRef o) {
    std::optional<Value> v = g.GetProperty(o, prop);
    return v.has_value() ? *v : missing;
  };
}

std::function<Value(ObjectRef, const Value&)> SumStep(const PropertyGraph& g,
                                                      const std::string& prop) {
  return [&g, prop](ObjectRef o, const Value& acc) {
    std::optional<Value> v = g.GetProperty(o, prop);
    double lhs = v.has_value() && v->is_numeric() ? v->ToDouble() : 0.0;
    double rhs = acc.is_numeric() ? acc.ToDouble() : 0.0;
    double sum = lhs + rhs;
    // Keep integer sums integral so `= 0` predicates behave exactly.
    if ((!v.has_value() || v->is_int()) && acc.is_int()) {
      int64_t l = v.has_value() ? v->as_int() : 0;
      return Value(l + acc.as_int());
    }
    return Value(sum);
  };
}

std::function<Value(ObjectRef, const Value&)> IncreasingStep(
    const PropertyGraph& g, const std::string& prop) {
  return [&g, prop](ObjectRef o, const Value& acc) {
    std::optional<Value> v = g.GetProperty(o, prop);
    if (!v.has_value() || !v->is_numeric() || !acc.is_numeric()) {
      return Value(-1);
    }
    double mine = v->ToDouble();
    double later = acc.ToDouble();
    if (mine >= 0 && mine <= later) return *v;
    return Value(-1);
  };
}

Value SumOverEdges(const PropertyGraph& g, const Path& p,
                   const std::string& prop) {
  ObjectList edges;
  for (EdgeId e : p.Edges()) edges.push_back(ObjectRef::Edge(e));
  return Reduce(Value(0), PropertyIota(g, prop), SumStep(g, prop), edges);
}

std::vector<Path> PathsWithReducePredicate(
    const PropertyGraph& g, NodeId u, NodeId v, const Value& init,
    const std::function<Value(ObjectRef)>& iota,
    const std::function<Value(ObjectRef, const Value&)>& f,
    const std::function<bool(const Value&)>& predicate,
    const ReduceQueryOptions& options, ReduceQueryStats* stats) {
  const GraphSnapshot snap(g.skeleton());
  std::vector<Path> results;
  ReduceQueryStats local;
  std::vector<ObjectRef> current = {ObjectRef::Node(u)};
  std::vector<bool> used(g.NumNodes(), false);
  used[u] = true;
  bool stopped = false;

  // DFS over all (bounded) walks, out-edges in edge-id order (which fixes
  // the paths `max_results` keeps); the reduce is recomputed per emitted
  // path — deliberately naive, matching the warning in Section 5.2.
  std::function<void(NodeId, size_t)> dfs = [&](NodeId node, size_t len) {
    if (stopped) return;
    ++local.paths_explored;
    if (node == v) {
      ObjectList edges;
      for (const ObjectRef& o : current) {
        if (o.is_edge()) edges.push_back(o);
      }
      if (predicate(Reduce(init, iota, f, edges))) {
        results.push_back(Path::MakeUnchecked(current));
        if (results.size() >= options.max_results) {
          local.truncated = true;
          stopped = true;
          return;
        }
      }
    }
    if (len >= options.max_path_length) {
      local.truncated = true;
      return;
    }
    for (EdgeId e : snap.OutEdgesById(node)) {
      NodeId next = g.Tgt(e);
      if (options.simple_only && used[next]) continue;
      current.push_back(ObjectRef::Edge(e));
      current.push_back(ObjectRef::Node(next));
      if (options.simple_only) used[next] = true;
      dfs(next, len + 1);
      if (options.simple_only) used[next] = false;
      current.pop_back();
      current.pop_back();
      if (stopped) return;
    }
  };
  dfs(u, 0);
  std::sort(results.begin(), results.end());
  results.erase(std::unique(results.begin(), results.end()), results.end());
  if (stats != nullptr) *stats = local;
  return results;
}

}  // namespace gqzoo
