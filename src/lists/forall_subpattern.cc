#include "src/lists/forall_subpattern.h"

namespace gqzoo {

PropertyGraph PathAsGraph(const PropertyGraph& g, const Path& p) {
  PropertyGraph out;
  // The paper's paths in patterns are node-to-node; we also accept
  // edge-delimited paths by materializing their endpoints.
  auto add_node = [&](NodeId original, size_t pos) {
    NodeId n = out.AddNode("pos" + std::to_string(pos),
                           g.LabelName(g.NodeLabel(original)));
    for (const auto& [prop, value] :
         g.PropertiesOf(ObjectRef::Node(original))) {
      out.SetProperty(ObjectRef::Node(n), g.PropertyName(prop), value);
    }
    return n;
  };

  // Normalize to a node-delimited alternating sequence (materialize the
  // endpoints of edge-to-* paths), then lay positions down left to right.
  std::vector<ObjectRef> objects = p.objects();
  if (!objects.empty() && objects.front().is_edge()) {
    objects.insert(objects.begin(), ObjectRef::Node(g.Src(objects.front().id)));
  }
  if (!objects.empty() && objects.back().is_edge()) {
    objects.push_back(ObjectRef::Node(g.Tgt(objects.back().id)));
  }
  NodeId prev = kInvalidId;
  size_t pos = 0;
  for (size_t i = 0; i < objects.size(); ++i) {
    const ObjectRef& o = objects[i];
    if (o.is_node()) {
      prev = add_node(o.id, pos++);
      continue;
    }
    // Edge occurrence between the previous node position and the next one
    // (which the following loop iteration creates): create the target now
    // and skip the upcoming node object.
    EdgeId original = o.id;
    NodeId tgt = add_node(g.Tgt(original), pos++);
    EdgeId e = out.AddEdge(prev, tgt, g.LabelName(g.EdgeLabel(original)),
                           std::string(g.EdgeName(original)) + "@" + std::to_string(pos));
    for (const auto& [prop, value] :
         g.PropertiesOf(ObjectRef::Edge(original))) {
      out.SetProperty(ObjectRef::Edge(e), g.PropertyName(prop), value);
    }
    prev = tgt;
    ++i;  // the next object is tgt(original); it is already materialized
  }
  return out;
}

Result<bool> ForAllSubpatternHolds(const PropertyGraph& g, const Path& p,
                                   const CorePattern& sub,
                                   const CoreCondition& cond) {
  PropertyGraph path_graph = PathAsGraph(g, p);
  GraphSnapshot snapshot(path_graph);
  Result<std::vector<CorePairRow>> matches =
      EvalPatternPairs(path_graph, sub, snapshot);
  if (!matches.ok()) return matches.error();
  for (const CorePairRow& row : matches.value()) {
    if (!EvalCoreCondition(path_graph, cond, row.mu)) return false;
  }
  return true;
}

Result<std::vector<Path>> FilterForAllSubpattern(
    const PropertyGraph& g, const std::vector<Path>& paths,
    const CorePattern& sub, const CoreCondition& cond) {
  std::vector<Path> out;
  for (const Path& p : paths) {
    Result<bool> ok = ForAllSubpatternHolds(g, p, sub, cond);
    if (!ok.ok()) return ok.error();
    if (ok.value()) out.push_back(p);
  }
  return out;
}

}  // namespace gqzoo
