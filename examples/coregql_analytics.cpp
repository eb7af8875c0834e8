// CoreGQL analytics: Section 4's pattern-to-relation pipeline on an
// account graph — the example query of Section 4.1.3,
//     π_{x, x.s}(σ_{x1 ≠ x2 ∧ x1.p = x2.p}(R^{π1}_{Ω1} ⋈ R^{π2}_{Ω2})),
// plus set operations between MATCH blocks and a path-returning block.

#include <cstdio>

#include "src/coregql/algebra.h"
#include "src/coregql/query.h"
#include "src/graph/graph.h"

using namespace gqzoo;

namespace {

// Accounts with a `segment` (s) and devices with a `fingerprint` (p):
// two devices used by one account sharing a fingerprint is a signal.
PropertyGraph BuildAccountGraph() {
  PropertyGraph g;
  struct Account {
    const char* name;
    const char* segment;
  };
  for (const Account& a : {Account{"alice", "retail"},
                           Account{"bob", "retail"},
                           Account{"carol", "corporate"}}) {
    NodeId n = g.AddNode(a.name, "Account");
    g.SetProperty(ObjectRef::Node(n), "s", Value(a.segment));
  }
  struct Device {
    const char* name;
    int64_t fingerprint;
  };
  for (const Device& d : {Device{"d1", 7}, Device{"d2", 7}, Device{"d3", 9},
                          Device{"d4", 5}}) {
    NodeId n = g.AddNode(d.name, "Device");
    g.SetProperty(ObjectRef::Node(n), "p", Value(d.fingerprint));
  }
  auto edge = [&](const char* a, const char* d) {
    g.AddEdge(*g.FindNode(a), *g.FindNode(d), "uses");
  };
  edge("alice", "d1");
  edge("alice", "d2");  // alice uses two devices with fingerprint 7
  edge("bob", "d2");
  edge("bob", "d3");
  edge("carol", "d4");
  return g;
}

}  // namespace

int main() {
  PropertyGraph g = BuildAccountGraph();
  GraphSnapshot snap(g);

  // The paper's query: accounts connected to two *different* devices with
  // the same fingerprint, returning the account and its segment. The
  // x1 ≠ x2 selection happens in the algebra layer, exactly as in the
  // paper's relational-algebra expression.
  CoreQueryResult matched =
      RunCoreGql(g,
                 "MATCH (x:Account)-[:uses]->(x1:Device), "
                 "      (x)-[:uses]->(x2:Device) "
                 "WHERE x1.p = x2.p RETURN x, x.s, x1, x2",
                 {.path_options = {.snapshot = &snap}})
          .ValueOrDie();
  const CoreRelation& rel = matched.relation;
  size_t i1 = rel.AttrIndex("x1");
  size_t i2 = rel.AttrIndex("x2");
  CoreRelation distinct = Select(rel, [&](const std::vector<CoreCell>& row) {
    return !(row[i1] == row[i2]);
  });
  CoreRelation out = Project(distinct, {"x", "x.s"}).ValueOrDie();
  printf("Section 4.1.3 query — shared-fingerprint accounts:\n%s\n",
         out.ToString(g.skeleton()).c_str());

  // Set operations between blocks: retail accounts that are NOT flagged.
  CoreRelation flagged = Project(distinct, {"x"}).ValueOrDie();
  CoreQueryResult retail =
      RunCoreGql(g, "MATCH (x:Account) WHERE x.s = 'retail' RETURN x",
                 {.path_options = {.snapshot = &snap}})
          .ValueOrDie();
  CoreRelation clean =
      DifferenceRel(retail.relation, flagged).ValueOrDie();
  printf("retail and not flagged:\n%s\n",
         clean.ToString(g.skeleton()).c_str());

  // A path-returning block (the Section 5.2 extension): device-sharing
  // chains between accounts.
  CoreQueryResult chains =
      RunCoreGql(g,
                 "MATCH p = (a:Account) (-[:uses]-> ()){1,2} RETURN p",
                 {.path_options = {.snapshot = &snap}})
          .ValueOrDie();
  printf("uses-chains (paths as first-class outputs):\n%s",
         chains.relation.ToString(g.skeleton()).c_str());
  return 0;
}
