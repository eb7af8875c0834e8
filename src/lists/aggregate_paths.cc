#include "src/lists/aggregate_paths.h"

#include <functional>

#include "src/graph/csr.h"
#include "src/lists/list_functions.h"

namespace gqzoo {

namespace {

// All node-to-node paths u→v with exactly `len` edges, out-edges taken in
// edge-id order.
std::vector<Path> PathsOfLength(const PropertyGraph& g, NodeId u, NodeId v,
                                size_t len) {
  const GraphSnapshot snap(g.skeleton());
  std::vector<Path> out;
  std::vector<ObjectRef> current = {ObjectRef::Node(u)};
  std::function<void(NodeId, size_t)> dfs = [&](NodeId node, size_t depth) {
    if (depth == len) {
      if (node == v) out.push_back(Path::MakeUnchecked(current));
      return;
    }
    for (EdgeId e : snap.OutEdgesById(node)) {
      current.push_back(ObjectRef::Edge(e));
      current.push_back(ObjectRef::Node(g.Tgt(e)));
      dfs(g.Tgt(e), depth + 1);
      current.pop_back();
      current.pop_back();
    }
  };
  dfs(u, 0);
  return out;
}

}  // namespace

AggregatePathResult SelectAggregatePaths(
    const PropertyGraph& g, NodeId u, NodeId v,
    const std::function<bool(const Path&)>& cond, AggregateSemantics semantics,
    const AggregatePathOptions& options) {
  AggregatePathResult result;
  for (size_t len = 0; len <= options.max_path_length; ++len) {
    std::vector<Path> level = PathsOfLength(g, u, v, len);
    if (level.empty()) {
      // No path of this exact length; longer ones may still exist if the
      // graph has cycles — keep scanning up to the bound.
      continue;
    }
    if (semantics == AggregateSemantics::kConditionAfterShortest) {
      // `shortest` first: this is the shortest level; filter and stop.
      for (const Path& p : level) {
        if (cond(p)) result.paths.push_back(p);
      }
      return result;
    }
    // kShortestAmongSatisfying: stop at the first level with a satisfier.
    std::vector<Path> satisfying;
    for (const Path& p : level) {
      if (cond(p)) satisfying.push_back(p);
    }
    if (!satisfying.empty()) {
      result.paths = std::move(satisfying);
      return result;
    }
  }
  result.hit_length_bound = true;
  return result;
}

std::function<bool(const Path&)> QuadraticSigmaCondition(
    const PropertyGraph& g, const std::string& prop) {
  return [&g, prop](const Path& p) {
    if (p.empty() || !p.EndsWithNode()) return false;
    ObjectRef x = p.back();
    std::optional<Value> a = g.GetProperty(x, "a");
    std::optional<Value> b = g.GetProperty(x, "b");
    std::optional<Value> c = g.GetProperty(x, "c");
    if (!a || !b || !c || !a->is_numeric() || !b->is_numeric() ||
        !c->is_numeric()) {
      return false;
    }
    Value sigma = SumOverEdges(g, p, prop);
    double s = sigma.is_numeric() ? sigma.ToDouble() : 0.0;
    double lhs = a->ToDouble() * s * s + b->ToDouble() * s + c->ToDouble();
    return lhs == 0.0;
  };
}

}  // namespace gqzoo
