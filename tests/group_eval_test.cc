// The paper's Examples 1 and 2 executed under real GQL group-variable
// semantics, demonstrating the anomalies the paper blames on using one
// variable mechanism for both joins and list collection — and the
// contrast with l-RPQ list variables, which satisfy [[R]]² = [[R·R]].

#include <gtest/gtest.h>

#include "src/coregql/group_eval.h"
#include "src/coregql/pattern_parser.h"
#include "src/graph/generators.h"
#include "src/graph/graph_io.h"
#include "tests/test_util.h"

namespace gqzoo {
namespace {

using testing_util::SnapshotEvalGqlGroupPattern;

CorePatternPtr Pat(const std::string& text) {
  return ParseCorePattern(text).ValueOrDie();
}

// Two a-edges in a row: u0 -e0-> u1 -e1-> u2 (named u1..u3 by Chain).
PropertyGraph TwoEdgeChain() { return ToPropertyGraph(Chain(2)); }

TEST(GqlValueTest, Printing) {
  PropertyGraph g = TwoEdgeChain();
  GqlValue element(ObjectRef::Node(0));
  EXPECT_EQ(element.ToString(g.skeleton()), "u1");
  GqlValue nested(std::vector<GqlValue>{
      GqlValue(ObjectRef::Edge(0)),
      GqlValue(std::vector<GqlValue>{GqlValue(ObjectRef::Edge(1))})});
  EXPECT_EQ(nested.ToString(g.skeleton()), "list(e0, list(e1))");
}

TEST(GroupEvalTest, Example1RepetitionCollectsAList) {
  // (x) ( ()-[z:a]->() ){2} (y): z is a group variable collecting the two
  // traversed edges — exactly what the paper says GQL does.
  PropertyGraph g = TwoEdgeChain();
  Result<GqlEvalResult> r =
      SnapshotEvalGqlGroupPattern(g, *Pat("(x) ( ()-[z:a]->() ){2} (y)"));
  ASSERT_TRUE(r.ok()) << r.error().message();
  ASSERT_EQ(r.value().rows.size(), 1u);
  const GqlPathRow& row = r.value().rows[0];
  EXPECT_EQ(row.mu.at("x").ToString(g.skeleton()), "u1");
  EXPECT_EQ(row.mu.at("y").ToString(g.skeleton()), "u3");
  EXPECT_EQ(row.mu.at("z").ToString(g.skeleton()), "list(e0, e1)");
}

TEST(GroupEvalTest, Example1JoinVariantOnlyMatchesSelfLoops) {
  // (x) ()-[z:a]->() ()-[z:a]->() (y): both z occurrences are singletons
  // and join — only a self-loop can satisfy it (with the node joins).
  PropertyGraph chain = TwoEdgeChain();
  Result<GqlEvalResult> none = SnapshotEvalGqlGroupPattern(
      chain, *Pat("(x) ()-[z:a]->() ()-[z:a]->() (y)"));
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none.value().rows.empty());

  PropertyGraph loop;
  NodeId u = loop.AddNode("u", "N");
  loop.AddEdge(u, u, "a", "self");
  Result<GqlEvalResult> only = SnapshotEvalGqlGroupPattern(
      loop, *Pat("(x) ()-[z:a]->() ()-[z:a]->() (y)"));
  ASSERT_TRUE(only.ok());
  ASSERT_EQ(only.value().rows.size(), 1u);
  EXPECT_EQ(only.value().rows[0].mu.at("z").ToString(loop.skeleton()),
            "self");
}

TEST(GroupEvalTest, Example1ThirdVariantBindsSeparately) {
  // (x) ()-[z:a]->() ()-[z1:a]->() (y): matches the 2-edge path but binds
  // z and z1 separately instead of one list.
  PropertyGraph g = TwoEdgeChain();
  Result<GqlEvalResult> r = SnapshotEvalGqlGroupPattern(
      g, *Pat("(x) ()-[z:a]->() ()-[z1:a]->() (y)"));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().rows.size(), 1u);
  EXPECT_EQ(r.value().rows[0].mu.at("z").ToString(g.skeleton()), "e0");
  EXPECT_EQ(r.value().rows[0].mu.at("z1").ToString(g.skeleton()), "e1");
}

TEST(GroupEvalTest, RepetitionIsNotConcatenation) {
  // The Example 1 disconnect, end to end: π{2} differs from π π with a
  // shared variable, and differs in *binding shape* from π π with fresh
  // variables — while for l-RPQs [[R]]² = [[R·R]] by definition
  // (pmr_test.cc, LrpqSemanticTest).
  PropertyGraph g = TwoEdgeChain();
  auto repeated =
      SnapshotEvalGqlGroupPattern(g, *Pat("(x) ( ()-[z:a]->() ){2} (y)"));
  auto shared =
      SnapshotEvalGqlGroupPattern(g, *Pat("(x) ()-[z:a]->() ()-[z:a]->() (y)"));
  ASSERT_TRUE(repeated.ok());
  ASSERT_TRUE(shared.ok());
  EXPECT_EQ(repeated.value().rows.size(), 1u);
  EXPECT_EQ(shared.value().rows.size(), 0u);
}

TEST(GroupEvalTest, Example2JoinInsideGroupOutside) {
  // Example 2: within one iteration x joins (a self-loop is required);
  // across iterations x becomes a group. Build the graph the example
  // describes: nodes with a-self-loops connected by a-edges.
  PropertyGraph g;
  NodeId n0 = g.AddNode("m0", "N");
  NodeId n1 = g.AddNode("m1", "N");
  NodeId n2 = g.AddNode("m2", "N");
  g.AddEdge(n0, n0, "a", "loop0");
  g.AddEdge(n1, n1, "a", "loop1");
  g.AddEdge(n0, n1, "a", "step01");
  g.AddEdge(n1, n2, "a", "step12");  // m2 has no self-loop

  // Iteration body: (x) with an a-self-loop, then an a-step onward.
  CorePatternPtr pattern = Pat("( (x)-[:a]->(x)-[:a]->() ){1,3}");
  Result<GqlEvalResult> r = SnapshotEvalGqlGroupPattern(g, *pattern);
  ASSERT_TRUE(r.ok()) << r.error().message();
  // The 2-iteration match starting at m0 that steps onward to m2:
  // x -> list(m0, m1), path loop0, step01, loop1, step12.
  bool found = false;
  for (const GqlPathRow& row : r.value().rows) {
    if (row.mu.at("x").ToString(g.skeleton()) == "list(m0, m1)" &&
        row.path.ToString(g.skeleton()) ==
            "path(m0, loop0, m0, step01, m1, loop1, m1, step12, m2)") {
      found = true;
    }
    // Every collected x must have a self-loop: m2 never appears in a list.
    EXPECT_EQ(row.mu.at("x").ToString(g.skeleton()).find("m2"),
              std::string::npos);
  }
  EXPECT_TRUE(found);
}

TEST(GroupEvalTest, NestedRepetitionsNestLists) {
  // ( ( ()-[z:a]->() ){2} ){2}: z is a list of lists — the "monster".
  PropertyGraph g = ToPropertyGraph(Chain(4));
  Result<GqlEvalResult> r =
      SnapshotEvalGqlGroupPattern(g, *Pat("( ( ()-[z:a]->() ){2} ){2}"));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().rows.size(), 1u);
  EXPECT_EQ(r.value().rows[0].mu.at("z").ToString(g.skeleton()),
            "list(list(e0, e1), list(e2, e3))");
}

TEST(GroupEvalTest, DegreeMixingIsAnError) {
  // z as a group (under a star) concatenated with z as a singleton.
  PropertyGraph g = TwoEdgeChain();
  Result<GqlEvalResult> r = SnapshotEvalGqlGroupPattern(
      g, *Pat("( ()-[z:a]->() )* ()-[z:a]->()"));
  EXPECT_FALSE(r.ok());
}

TEST(GroupEvalTest, ConditionsSeeSingletonsOnly) {
  PropertyGraph g;
  NodeId a = g.AddNode("a", "N");
  NodeId b = g.AddNode("b", "N");
  g.SetProperty(ObjectRef::Node(a), "k", Value(1));
  g.SetProperty(ObjectRef::Node(b), "k", Value(2));
  EdgeId e = g.AddEdge(a, b, "x");
  g.SetProperty(ObjectRef::Edge(e), "k", Value(5));
  Result<GqlEvalResult> ok = SnapshotEvalGqlGroupPattern(
      g, *Pat("( (u)-[f]->(v) WHERE u.k < v.k )"));
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value().rows.size(), 1u);
  // A condition over a group variable filters everything out (like an
  // unbound variable — no nulls, no implicit unnesting).
  Result<GqlEvalResult> group_cond = SnapshotEvalGqlGroupPattern(
      g, *Pat("( ( (u)-[f]->(v) )* WHERE u.k < v.k )"));
  ASSERT_TRUE(group_cond.ok());
  EXPECT_TRUE(group_cond.value().rows.empty());
}

TEST(GroupEvalTest, Section42PartialBindingsInsteadOfNulls) {
  // Section 4.2: real GQL allows `((x) + ->y)` to produce bindings with
  // domain {x} or {y} — CoreGQL forbids it (no nulls), but the
  // group-variable evaluator models GQL's partial bindings as partial
  // maps. Build the union AST directly (the CoreGQL parser would reject
  // the unequal free variables by design).
  PropertyGraph g = ToPropertyGraph(Chain(1));  // u1 -e0-> u2
  CorePatternPtr arms = CorePattern::Union(
      CorePattern::Node("x", std::nullopt),
      CorePattern::Edge("y", std::nullopt));
  Result<GqlEvalResult> r = SnapshotEvalGqlGroupPattern(g, *arms);
  ASSERT_TRUE(r.ok()) << r.error().message();
  size_t node_rows = 0, edge_rows = 0;
  for (const GqlPathRow& row : r.value().rows) {
    if (row.mu.count("x")) {
      EXPECT_FALSE(row.mu.count("y"));
      ++node_rows;
    } else {
      EXPECT_TRUE(row.mu.count("y"));
      ++edge_rows;
    }
  }
  EXPECT_EQ(node_rows, 2u);  // u1, u2
  EXPECT_EQ(edge_rows, 1u);  // e0
  // CoreGQL itself rejects the same pattern (no nulls).
  EXPECT_FALSE(EvalPatternPairs(g, *arms, GraphSnapshot(g)).ok());
}

TEST(GroupEvalTest, StarCollectsPerIterationOnCycles) {
  PropertyGraph g = ToPropertyGraph(Cycle(2));
  CorePathEvalOptions options;
  options.max_path_length = 4;
  Result<GqlEvalResult> r = SnapshotEvalGqlGroupPattern(
      g, *Pat("( ()-[z]->() )* "), options);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().truncated);
  // Lists of every length up to the bound appear.
  size_t max_len = 0;
  for (const GqlPathRow& row : r.value().rows) {
    max_len = std::max(max_len, row.mu.at("z").list().size());
  }
  EXPECT_EQ(max_len, 4u);
}

}  // namespace
}  // namespace gqzoo
