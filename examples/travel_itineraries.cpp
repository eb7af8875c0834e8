// Travel itineraries: the increasing-values-on-edges problem of Example 3
// and Section 5.2, in its natural habitat. Cities are nodes; flights are
// edges with a `day` property. A valid itinerary takes flights on strictly
// increasing days. The paper's point: this is easy for node properties but
// needs either symmetric dl-RPQs, an EXCEPT workaround, or reduce — we run
// all three and check they agree.

#include <cstdio>
#include <random>
#include <set>

#include "src/coregql/query.h"
#include "src/datatest/dl_eval.h"
#include "src/graph/graph.h"
#include "src/lists/list_functions.h"
#include "src/regex/parser.h"

using namespace gqzoo;

namespace {

PropertyGraph BuildFlights() {
  PropertyGraph g;
  const char* cities[] = {"PAR", "BAY", "WAW", "JER", "SCL", "BER"};
  for (const char* c : cities) g.AddNode(c, "City");
  struct Flight {
    const char* from;
    const char* to;
    int64_t day;
  };
  const Flight flights[] = {
      {"PAR", "BAY", 1}, {"BAY", "WAW", 3}, {"WAW", "JER", 5},
      {"JER", "SCL", 8}, {"PAR", "WAW", 4}, {"WAW", "SCL", 2},
      {"BAY", "JER", 2}, {"JER", "BER", 9}, {"SCL", "BER", 12},
      {"PAR", "JER", 7}, {"BER", "SCL", 6},
  };
  for (const Flight& f : flights) {
    EdgeId e = g.AddEdge(*g.FindNode(f.from), *g.FindNode(f.to), "flight");
    g.SetProperty(ObjectRef::Edge(e), "day", Value(f.day));
  }
  return g;
}

}  // namespace

int main() {
  PropertyGraph g = BuildFlights();
  GraphSnapshot snap(g);
  NodeId par = *g.FindNode("PAR");
  NodeId ber = *g.FindNode("BER");
  printf("Flight network: %zu cities, %zu flights. Itineraries PAR -> BER "
         "with strictly increasing days:\n\n",
         g.NumNodes(), g.NumEdges());

  // --- (a) The dl-RPQ way (Example 21, edge version) ---------------------
  DlNfa dl = DlNfa::FromRegex(
      *ParseRegex("()[flight^z][x := day]"
                  "( (_)[flight^z][day > x][x := day] )*()",
                  RegexDialect::kDl)
           .ValueOrDie(),
      g);
  DlEvaluator evaluator(g, dl, &snap);
  EnumerationLimits limits;
  limits.max_length = 6;
  std::set<Path> dl_paths;
  printf("(a) dl-RPQ (register automaton, one pass):\n");
  for (const PathBinding& pb :
       evaluator.CollectModePaths(par, ber, PathMode::kAll, limits)) {
    printf("    %s\n", pb.path.ToString(g.skeleton()).c_str());
    dl_paths.insert(pb.path);
  }

  // --- (b) The GQL workaround: all paths EXCEPT violating ones -----------
  CoreQueryEvalOptions options;
  options.path_options.max_path_length = 6;
  options.path_options.snapshot = &snap;
  CoreQueryResult except = RunCoreGql(
                               g,
                               "MATCH p = (s) ->+ (t) RETURN p "
                               "EXCEPT "
                               "MATCH p = (s) ->* "
                               "( ( ()-[u]->()-[v]->() ) WHERE u.day >= v.day )"
                               " ->* (t) RETURN p",
                               options)
                               .ValueOrDie();
  std::set<Path> except_paths;
  for (const auto& row : except.relation.rows()) {
    const Path& p = std::get<Path>(row[0]);
    if (p.Src(g.skeleton()) == par && p.Tgt(g.skeleton()) == ber) {
      except_paths.insert(p);
    }
  }
  printf("\n(b) EXCEPT workaround found %zu PAR->BER itineraries "
         "(computed %zu paths overall to get them).\n",
         except_paths.size(), except.relation.NumRows());

  // --- (c) The Cypher list/reduce workaround ------------------------------
  auto ge0 = [](const Value& v) { return v.is_numeric() && v.ToDouble() >= 0; };
  std::vector<Path> reduce_paths = PathsWithReducePredicate(
      g, par, ber, Value(0), PropertyIota(g, "day"), IncreasingStep(g, "day"),
      ge0, {.max_path_length = 6});
  // Drop the zero-flight path (reduce over an empty edge list is ε = 0).
  std::set<Path> reduce_set;
  for (const Path& p : reduce_paths) {
    if (p.Length() > 0) reduce_set.insert(p);
  }
  printf("(c) reduce workaround found %zu itineraries.\n\n",
         reduce_set.size());

  printf("agreement: dl == except: %s, dl == reduce: %s\n",
         dl_paths == except_paths ? "yes" : "NO",
         dl_paths == reduce_set ? "yes" : "NO");

  // Node-property contrast (Example 3): increasing values on *nodes* is
  // a one-liner in plain GQL-style patterns.
  PropertyGraph hubs = BuildFlights();
  for (NodeId n = 0; n < hubs.NumNodes(); ++n) {
    hubs.SetProperty(ObjectRef::Node(n), "tier", Value(static_cast<int64_t>(n)));
  }
  GraphSnapshot hubs_snap(hubs);
  CoreQueryResult node_inc =
      RunCoreGql(hubs,
                 "MATCH (x) ( ((u)->(v)) WHERE u.tier < v.tier )* (y) "
                 "RETURN x, y",
                 {.path_options = {.snapshot = &hubs_snap}})
          .ValueOrDie();
  printf("\n(Example 3 contrast) node-increasing pattern answers: %zu — "
         "a single WHERE inside the star suffices for nodes.\n",
         node_inc.relation.NumRows());
  return 0;
}
