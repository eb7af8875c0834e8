#include <gtest/gtest.h>

#include <set>

#include "src/coregql/algebra.h"
#include "src/coregql/pattern_eval.h"
#include "src/coregql/pattern_parser.h"
#include "src/coregql/query.h"
#include "src/graph/builtin_graphs.h"
#include "src/graph/generators.h"
#include "src/graph/graph_io.h"
#include "tests/test_util.h"

namespace gqzoo {
namespace {

using testing_util::SnapshotEvalPatternPaths;
using testing_util::SnapshotRunCoreGql;

CorePatternPtr Pat(const std::string& text) {
  Result<CorePatternPtr> p = ParseCorePattern(text);
  if (!p.ok()) {
    ADD_FAILURE() << text << ": " << p.error().message();
    return CorePattern::Node(std::nullopt, std::nullopt);
  }
  return p.value();
}

// A chain with integer property k on nodes and edges for condition tests.
PropertyGraph ValueChain(const std::vector<int64_t>& node_values,
                         const std::vector<int64_t>& edge_values) {
  PropertyGraph g;
  for (size_t i = 0; i < node_values.size(); ++i) {
    NodeId n = g.AddNode("n" + std::to_string(i), "N");
    g.SetProperty(ObjectRef::Node(n), "k", Value(node_values[i]));
  }
  for (size_t i = 0; i < edge_values.size(); ++i) {
    EdgeId e = g.AddEdge(static_cast<NodeId>(i), static_cast<NodeId>(i + 1),
                         "a");
    g.SetProperty(ObjectRef::Edge(e), "k", Value(edge_values[i]));
  }
  return g;
}

TEST(CorePatternParserTest, AtomsAndSugar) {
  CorePatternPtr node = Pat("(x:Account)");
  EXPECT_EQ(node->kind(), CorePattern::Kind::kNode);
  EXPECT_EQ(*node->var(), "x");
  EXPECT_EQ(*node->label(), "Account");
  CorePatternPtr anon = Pat("()");
  EXPECT_FALSE(anon->var().has_value());
  CorePatternPtr edge = Pat("-[e:Transfer]->");
  EXPECT_EQ(edge->kind(), CorePattern::Kind::kEdge);
  EXPECT_EQ(*edge->var(), "e");
  CorePatternPtr arrow = Pat("->");
  EXPECT_EQ(arrow->kind(), CorePattern::Kind::kEdge);
  EXPECT_FALSE(arrow->var().has_value());
}

TEST(CorePatternParserTest, FreeVariableRules) {
  // FV of a repetition is empty (Section 4.1.1).
  CorePatternPtr star = Pat("( (u)->(v) )*");
  EXPECT_TRUE(star->FreeVariables().empty());
  EXPECT_EQ(star->AllVariables(),
            (std::vector<std::string>{"u", "v"}));
  CorePatternPtr seq = Pat("(x) -[e]-> (y)");
  EXPECT_EQ(seq->FreeVariables(),
            (std::vector<std::string>{"x", "e", "y"}));
  // Disjunction arms must have equal FV.
  EXPECT_TRUE(ParseCorePattern("((x)->(y) | (x)(y))").ok());
  EXPECT_FALSE(ParseCorePattern("((x)->(y) | (x)(z))").ok());
}

TEST(CorePatternParserTest, ConditionsParse) {
  CorePatternPtr p = Pat("( (u)-[e]->(v) WHERE u.k < v.k AND NOT e.w = 3 )");
  ASSERT_EQ(p->kind(), CorePattern::Kind::kCondition);
  EXPECT_EQ(p->cond()->kind(), CoreCondition::Kind::kAnd);
  CorePatternPtr lbl = Pat("( (u)->(v) WHERE label(u) = Account OR v:N )");
  EXPECT_EQ(lbl->cond()->kind(), CoreCondition::Kind::kOr);
}

TEST(CorePatternParserTest, Errors) {
  EXPECT_FALSE(ParseCorePattern("(x").ok());
  EXPECT_FALSE(ParseCorePattern("-[e]").ok());
  EXPECT_FALSE(ParseCorePattern("(x) WHERE x.k < 1").ok());  // WHERE not in group
  EXPECT_FALSE(ParseCorePattern("( (x)->(y) WHERE )").ok());
  EXPECT_FALSE(ParseCorePattern("(x){2,1}").ok());
}

TEST(CorePatternEvalTest, NodeEdgeAndLabels) {
  PropertyGraph g = Figure3Graph();
  Result<std::vector<CorePairRow>> nodes =
      EvalPatternPairs(g, *Pat("(x:Account)"), GraphSnapshot(g));
  ASSERT_TRUE(nodes.ok());
  EXPECT_EQ(nodes.value().size(), 6u);
  Result<std::vector<CorePairRow>> edges =
      EvalPatternPairs(g, *Pat("-[e:Transfer]->"), GraphSnapshot(g));
  ASSERT_TRUE(edges.ok());
  EXPECT_EQ(edges.value().size(), 10u);
  Result<std::vector<CorePairRow>> none =
      EvalPatternPairs(g, *Pat("(x:Nothing)"), GraphSnapshot(g));
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none.value().empty());
}

TEST(CorePatternEvalTest, ConsecutiveNodeVariablesJoinOnSameNode) {
  // Example 1's parenthetical: (u)(v) must match the same node.
  PropertyGraph g = Figure3Graph();
  Result<std::vector<CorePairRow>> rows =
      EvalPatternPairs(g, *Pat("(u)(v)"), GraphSnapshot(g));
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), g.NumNodes());
  for (const CorePairRow& r : rows.value()) {
    EXPECT_EQ(r.mu.at("u"), r.mu.at("v"));
  }
}

TEST(CorePatternEvalTest, Example1RepeatedEdgeVariableMeansSelfJoin) {
  // (x) ()-[z:a]->() ()-[z:a]->() (y): both z occurrences must bind the
  // same edge; combined with the node joins this only matches self-loops.
  PropertyGraph g;
  NodeId u = g.AddNode("u", "N");
  NodeId v = g.AddNode("v", "N");
  g.AddEdge(u, u, "a", "loop");
  g.AddEdge(u, v, "a", "straight");
  Result<std::vector<CorePairRow>> rows = EvalPatternPairs(
      g, *Pat("(x) ()-[z:a]->() ()-[z:a]->() (y)"), GraphSnapshot(g));
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 1u);
  EXPECT_EQ(g.ObjectName(rows.value()[0].mu.at("z")), "loop");
  EXPECT_EQ(rows.value()[0].src, u);
  EXPECT_EQ(rows.value()[0].tgt, u);
}

TEST(CorePatternEvalTest, Example1RepetitionIsNotSelfJoin) {
  // (x) ( ()-[z:a]->() ){2} (y): the repetition erases z and matches any
  // 2-edge a-path — not equivalent to the self-join pattern above.
  PropertyGraph g;
  NodeId u = g.AddNode("u", "N");
  NodeId v = g.AddNode("v", "N");
  NodeId w = g.AddNode("w", "N");
  g.AddEdge(u, v, "a");
  g.AddEdge(v, w, "a");
  CorePatternPtr rep = Pat("(x) ( ()-[z:a]->() ){2} (y)");
  EXPECT_EQ(rep->FreeVariables(), (std::vector<std::string>{"x", "y"}));
  Result<std::vector<CorePairRow>> rows =
      EvalPatternPairs(g, *rep, GraphSnapshot(g));
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 1u);
  EXPECT_EQ(rows.value()[0].src, u);
  EXPECT_EQ(rows.value()[0].tgt, w);
  // The join-variant matches nothing here (no self-loop).
  Result<std::vector<CorePairRow>> join_rows = EvalPatternPairs(
      g, *Pat("(x) ()-[z:a]->() ()-[z:a]->() (y)"), GraphSnapshot(g));
  ASSERT_TRUE(join_rows.ok());
  EXPECT_TRUE(join_rows.value().empty());
}

TEST(CorePatternEvalTest, RepetitionBounds) {
  PropertyGraph g = ToPropertyGraph(Chain(4));  // u1 → ... → u5
  auto count = [&](const std::string& pattern) {
    Result<std::vector<CorePairRow>> rows =
        EvalPatternPairs(g, *Pat(pattern), GraphSnapshot(g));
    EXPECT_TRUE(rows.ok());
    return rows.value().size();
  };
  EXPECT_EQ(count("(x) -> (y)"), 4u);
  EXPECT_EQ(count("(x) ->{2} (y)"), 3u);
  EXPECT_EQ(count("(x) ->{2,3} (y)"), 5u);       // 3 + 2
  EXPECT_EQ(count("(x) ->* (y)"), 15u);          // pairs u_i ⇝ u_j, i ≤ j
  EXPECT_EQ(count("(x) ->+ (y)"), 10u);
  EXPECT_EQ(count("(x) ->? (y)"), 9u);           // 5 identity + 4 edges
  EXPECT_EQ(count("(x) ->{0} (y)"), 5u);         // identity on all nodes
}

TEST(CorePatternEvalTest, RepetitionOverCyclesTerminates) {
  PropertyGraph g = ToPropertyGraph(Cycle(3));
  Result<std::vector<CorePairRow>> rows =
      EvalPatternPairs(g, *Pat("(x) ->* (y)"), GraphSnapshot(g));
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), 9u);  // complete
  Result<std::vector<CorePairRow>> exact =
      EvalPatternPairs(g, *Pat("(x) ->{5} (y)"), GraphSnapshot(g));
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(exact.value().size(), 3u);  // rotation by 5 ≡ 2
}

TEST(CorePatternEvalTest, PiIncIncreasingNodeValues) {
  // π_inc from Section 5.1: increasing node property along the path.
  PropertyGraph inc = ValueChain({1, 2, 3, 4}, {0, 0, 0});
  CorePatternPtr pi_inc = Pat("(x) ( ((u)->(v)) WHERE u.k < v.k )* (y)");
  Result<std::vector<CorePairRow>> rows =
      EvalPatternPairs(inc, *pi_inc, GraphSnapshot(inc));
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), 10u);  // all i ≤ j pairs
  PropertyGraph dec = ValueChain({1, 3, 2, 4}, {0, 0, 0});
  Result<std::vector<CorePairRow>> rows2 =
      EvalPatternPairs(dec, *pi_inc, GraphSnapshot(dec));
  ASSERT_TRUE(rows2.ok());
  // n1 ⇝ n2 is blocked by 3 > 2: reachable pairs are the increasing runs.
  std::set<std::pair<NodeId, NodeId>> got;
  for (const CorePairRow& r : rows2.value()) got.insert({r.src, r.tgt});
  EXPECT_TRUE(got.count({0, 1}));
  EXPECT_FALSE(got.count({1, 2}));
  EXPECT_FALSE(got.count({0, 3}));
  EXPECT_TRUE(got.count({2, 3}));
}

TEST(CorePatternEvalTest, Prop23NaiveEdgePatternAcceptsCounterexample) {
  // Section 5.1: the naive two-edge-window pattern accepts the 4-edge path
  // with edge values 3, 4, 1, 2 because the window advances in steps of 2.
  PropertyGraph g = ValueChain({0, 0, 0, 0, 0}, {3, 4, 1, 2});
  CorePatternPtr naive =
      Pat("(x) ( ( ()-[u]->()-[v]->() ) WHERE u.k < v.k )* (y)");
  Result<std::vector<CorePairRow>> rows =
      EvalPatternPairs(g, *naive, GraphSnapshot(g));
  ASSERT_TRUE(rows.ok());
  std::set<std::pair<NodeId, NodeId>> got;
  for (const CorePairRow& r : rows.value()) got.insert({r.src, r.tgt});
  EXPECT_TRUE(got.count({0, 4}));  // accepted despite 4 > 1 in the middle
}

TEST(CorePathEvalTest, PathsMatchPairsProjection) {
  // Path-level evaluation projected to endpoints+µ equals pair-level
  // evaluation, on graphs where [[π]] is finite.
  PropertyGraph g = ToPropertyGraph(Chain(3));
  for (const char* text :
       {"(x) -> (y)", "(x) ->* (y)", "(x) ( (u)->(v) )? (y)",
        "(x) (->|->->) (y)"}) {
    CorePatternPtr p = Pat(text);
    Result<std::vector<CorePairRow>> pairs =
        EvalPatternPairs(g, *p, GraphSnapshot(g));
    Result<CorePathEvalResult> paths = SnapshotEvalPatternPaths(g, *p);
    ASSERT_TRUE(pairs.ok());
    ASSERT_TRUE(paths.ok());
    EXPECT_FALSE(paths.value().truncated);
    std::set<CorePairRow> projected;
    for (const CorePathRow& r : paths.value().rows) {
      projected.insert({r.path.Src(g.skeleton()), r.path.Tgt(g.skeleton()),
                        r.mu});
    }
    std::set<CorePairRow> expected(pairs.value().begin(),
                                   pairs.value().end());
    EXPECT_EQ(projected, expected) << text;
  }
}

TEST(CorePathEvalTest, PathsAreNodeToNode) {
  PropertyGraph g = Figure3Graph();
  Result<CorePathEvalResult> paths =
      SnapshotEvalPatternPaths(g, *Pat("-[e:Transfer]->"));
  ASSERT_TRUE(paths.ok());
  for (const CorePathRow& r : paths.value().rows) {
    EXPECT_TRUE(r.path.StartsWithNode());
    EXPECT_TRUE(r.path.EndsWithNode());
  }
  EXPECT_EQ(paths.value().rows.size(), 10u);
}

TEST(CorePathEvalTest, CyclicStarTruncates) {
  PropertyGraph g = ToPropertyGraph(Cycle(2));
  CorePathEvalOptions options;
  options.max_path_length = 6;
  Result<CorePathEvalResult> paths =
      SnapshotEvalPatternPaths(g, *Pat("(x) ->* (y)"), options);
  ASSERT_TRUE(paths.ok());
  EXPECT_TRUE(paths.value().truncated);
  for (const CorePathRow& r : paths.value().rows) {
    EXPECT_LE(r.path.Length(), 6u);
  }
}

TEST(CoreAlgebraTest, SelectProjectJoinRenameSetOps) {
  CoreRelation r({"x", "y"});
  r.AddRow({Value(1), Value(10)});
  r.AddRow({Value(2), Value(20)});
  r.AddRow({Value(2), Value(20)});  // duplicate
  r.Normalize();
  EXPECT_EQ(r.NumRows(), 2u);

  CoreRelation sel = Select(r, [](const std::vector<CoreCell>& row) {
    return Value::Compare(std::get<Value>(row[0]), CompareOp::kGt, Value(1));
  });
  EXPECT_EQ(sel.NumRows(), 1u);

  Result<CoreRelation> proj = Project(r, {"y"});
  ASSERT_TRUE(proj.ok());
  EXPECT_EQ(proj.value().NumRows(), 2u);
  EXPECT_FALSE(Project(r, {"zzz"}).ok());

  CoreRelation s({"y", "z"});
  s.AddRow({Value(10), Value(100)});
  s.AddRow({Value(30), Value(300)});
  CoreRelation joined = NaturalJoinRel(r, s);
  ASSERT_EQ(joined.NumRows(), 1u);
  EXPECT_EQ(joined.schema(),
            (std::vector<std::string>{"x", "y", "z"}));

  Result<CoreRelation> renamed = Rename(r, "x", "w");
  ASSERT_TRUE(renamed.ok());
  EXPECT_EQ(renamed.value().schema(),
            (std::vector<std::string>{"w", "y"}));
  EXPECT_FALSE(Rename(r, "zzz", "w").ok());
  EXPECT_FALSE(Rename(r, "x", "y").ok());

  CoreRelation t({"x", "y"});
  t.AddRow({Value(1), Value(10)});
  t.AddRow({Value(3), Value(30)});
  Result<CoreRelation> u = UnionRel(r, t);
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u.value().NumRows(), 3u);
  Result<CoreRelation> d = DifferenceRel(r, t);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value().NumRows(), 1u);
  Result<CoreRelation> i = IntersectRel(r, t);
  ASSERT_TRUE(i.ok());
  EXPECT_EQ(i.value().NumRows(), 1u);
  EXPECT_FALSE(UnionRel(r, s).ok());  // schema mismatch
}

TEST(CoreQueryTest, Section413ExampleQuery) {
  // Nodes u with property s connected to two different nodes with the same
  // value of property p: π_{x,x.s}(σ_{x1≠x2 ∧ x1.p=x2.p}(R1 ⋈ R2)).
  PropertyGraph g;
  NodeId hub = g.AddNode("hub", "N");
  g.SetProperty(ObjectRef::Node(hub), "s", Value("hubby"));
  NodeId other = g.AddNode("other", "N");
  g.SetProperty(ObjectRef::Node(other), "s", Value("o"));
  NodeId c1 = g.AddNode("c1", "N");
  NodeId c2 = g.AddNode("c2", "N");
  NodeId c3 = g.AddNode("c3", "N");
  g.SetProperty(ObjectRef::Node(c1), "p", Value(7));
  g.SetProperty(ObjectRef::Node(c2), "p", Value(7));
  g.SetProperty(ObjectRef::Node(c3), "p", Value(9));
  g.AddEdge(hub, c1, "a");
  g.AddEdge(hub, c2, "a");
  g.AddEdge(other, c1, "a");
  g.AddEdge(other, c3, "a");

  Result<CoreQueryResult> r = SnapshotRunCoreGql(
      g,
      "MATCH (x)->(x1), (x)->(x2) "
      "WHERE NOT x1.p = x2.p OR x1.p = x2.p RETURN x, x.s, x1, x2");
  ASSERT_TRUE(r.ok()) << r.error().message();
  // Do it properly through the algebra, as in the paper.
  Result<CoreQueryResult> q = SnapshotRunCoreGql(
      g,
      "MATCH (x)->(x1), (x)->(x2) WHERE x1.p = x2.p RETURN x.s, x1, x2");
  ASSERT_TRUE(q.ok());
  // Filter x1 ≠ x2 via the algebra layer.
  const CoreRelation& rel = q.value().relation;
  size_t i1 = rel.AttrIndex("x1");
  size_t i2 = rel.AttrIndex("x2");
  CoreRelation distinct = Select(rel, [&](const std::vector<CoreCell>& row) {
    return !(row[i1] == row[i2]);
  });
  Result<CoreRelation> out = Project(distinct, {"x.s"});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().NumRows(), 1u);
  EXPECT_EQ(std::get<Value>(out.value().rows()[0][0]), Value("hubby"));
}

TEST(CoreQueryTest, ReturnPropertyDropsIncompatibleRows) {
  // µ_Ω compatibility: rows whose element lacks the property vanish.
  PropertyGraph g;
  NodeId a = g.AddNode("a", "N");
  g.SetProperty(ObjectRef::Node(a), "k", Value(1));
  g.AddNode("b", "N");  // no k
  Result<CoreQueryResult> r = SnapshotRunCoreGql(g, "MATCH (x) RETURN x, x.k");
  ASSERT_TRUE(r.ok()) << r.error().message();
  ASSERT_EQ(r.value().relation.NumRows(), 1u);
  EXPECT_EQ(CoreCellToString(g.skeleton(), r.value().relation.rows()[0][0]),
            "a");
}

TEST(CoreQueryTest, PathBindingAndExcept) {
  // Section 5.2 "Turning to Complement for Help": all paths minus the
  // paths with a non-increasing adjacent edge pair.
  PropertyGraph g = ValueChain({0, 0, 0, 0, 0}, {3, 4, 1, 2});
  const std::string all =
      "MATCH p = (s) ->* (t) WHERE s.k = 0 AND t.k = 0 RETURN p";
  const std::string violating =
      "MATCH p = (s) ->* ( ( ()-[u]->()-[v]->() ) WHERE u.k >= v.k ) ->* (t) "
      "RETURN p";
  Result<CoreQueryResult> diff =
      SnapshotRunCoreGql(g, all + " EXCEPT " + violating);
  ASSERT_TRUE(diff.ok()) << diff.error().message();
  // Increasing-edge-value paths on 3,4,1,2: all length ≤ 1 paths, the (3,4)
  // prefix pair, and the (1,2) suffix pair: 5 + 4 + 2 = 11.
  EXPECT_EQ(diff.value().relation.NumRows(), 11u);
  for (const auto& row : diff.value().relation.rows()) {
    const Path& p = std::get<Path>(row[0]);
    std::vector<EdgeId> edges = p.Edges();
    for (size_t i = 0; i + 1 < edges.size(); ++i) {
      Value a = *g.GetProperty(ObjectRef::Edge(edges[i]), "k");
      Value b = *g.GetProperty(ObjectRef::Edge(edges[i + 1]), "k");
      EXPECT_TRUE(Value::Compare(a, CompareOp::kLt, b));
    }
  }
}

TEST(CoreQueryTest, UnionAndIntersect) {
  PropertyGraph g = Figure3Graph();
  Result<CoreQueryResult> u = SnapshotRunCoreGql(
      g,
      "MATCH (x) WHERE x.owner = 'Mike' RETURN x "
      "UNION MATCH (x) WHERE x.owner = 'Megan' RETURN x");
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u.value().relation.NumRows(), 2u);
  Result<CoreQueryResult> i = SnapshotRunCoreGql(
      g,
      "MATCH (x:Account) RETURN x "
      "INTERSECT MATCH (x) WHERE x.owner = 'Mike' RETURN x");
  ASSERT_TRUE(i.ok());
  EXPECT_EQ(i.value().relation.NumRows(), 1u);
}

TEST(CoreQueryTest, ParseErrors) {
  EXPECT_FALSE(ParseCoreGqlQuery("MATCH (x)").ok());
  EXPECT_FALSE(ParseCoreGqlQuery("RETURN x").ok());
  EXPECT_FALSE(ParseCoreGqlQuery("MATCH (x) RETURN").ok());
  EXPECT_FALSE(ParseCoreGqlQuery("MATCH (x) RETURN x FOO").ok());
  PropertyGraph g = Figure3Graph();
  EXPECT_FALSE(SnapshotRunCoreGql(g, "MATCH (x) RETURN y").ok());
}

TEST(CorePatternRoundTripTest, ToStringReparses) {
  for (const char* text :
       {"(x:Account) -[e:Transfer]-> (y)", "(x) ( (u)->(v) WHERE u.k < v.k )* (y)",
        "(x) ->{2,5} (y)", "((x)->(y) | (x)(y))"}) {
    CorePatternPtr p = Pat(text);
    Result<CorePatternPtr> reparsed = ParseCorePattern(p->ToString());
    ASSERT_TRUE(reparsed.ok()) << p->ToString() << ": "
                               << reparsed.error().message();
    EXPECT_EQ(reparsed.value()->ToString(), p->ToString());
  }
}

}  // namespace
}  // namespace gqzoo
