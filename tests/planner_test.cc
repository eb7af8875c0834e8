// Tests for the statistics-driven conjunct planner: exactness of the
// snapshot statistics, cost-model sanity against exact counts, the greedy
// join orderer, and — most importantly — differential suites asserting
// that planner-ordered evaluation returns results byte-identical to
// textual-order evaluation across all three conjunctive languages (the
// plan legs of src/fuzz/plan_legs.h).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "src/automata/nfa.h"
#include "src/coregql/query.h"
#include "src/crpq/crpq_parser.h"
#include "src/crpq/eval.h"
#include "src/crpq/join.h"
#include "src/datatest/dl_eval.h"
#include "src/datatest/dl_rpq.h"
#include "src/engine/engine.h"
#include "src/engine/plan.h"
#include "src/graph/csr.h"
#include "src/graph/generators.h"
#include "src/graph/graph.h"
#include "src/planner/cost_model.h"
#include "src/planner/planner.h"
#include "src/planner/stats.h"
#include "src/rel/rel.h"
#include "tests/test_util.h"

namespace gqzoo {
namespace {

using testing_util::ExpectPlanLegsAgree;
using testing_util::Rx;

/// Wraps an edge-labeled graph as a property graph (all nodes labeled "N")
/// so it can drive the engine and CompilePlan.
PropertyGraph ToPropertyGraph(const EdgeLabeledGraph& g) {
  PropertyGraph pg;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    pg.AddNode(std::string(g.NodeName(v)), "N");
  }
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    pg.AddEdge(g.Src(e), g.Tgt(e), g.LabelName(g.EdgeLabel(e)),
               std::string(g.EdgeName(e)));
  }
  return pg;
}

/// A star-join family where textual order is pessimal: `centers` hub nodes
/// each fan out over `fanout` shared targets via `big1` and `big2`, while
/// only `rare_centers` hubs carry a `rare` edge. The query
/// `q(x) :- big1(x,y), big2(x,z), rare(x,w)` builds a centers·fanout²
/// intermediate textually; rare-first keeps it at rare_centers·fanout².
EdgeLabeledGraph StarJoinGraph(size_t centers, size_t fanout,
                               size_t rare_centers) {
  EdgeLabeledGraph g;
  std::vector<NodeId> hubs, t1, t2;
  for (size_t i = 0; i < centers; ++i) {
    hubs.push_back(g.AddNode("c" + std::to_string(i)));
  }
  for (size_t j = 0; j < fanout; ++j) {
    t1.push_back(g.AddNode("s" + std::to_string(j)));
    t2.push_back(g.AddNode("t" + std::to_string(j)));
  }
  for (size_t i = 0; i < centers; ++i) {
    for (size_t j = 0; j < fanout; ++j) {
      g.AddEdge(hubs[i], t1[j], "big1");
      g.AddEdge(hubs[i], t2[j], "big2");
    }
  }
  for (size_t i = 0; i < rare_centers; ++i) {
    NodeId w = g.AddNode("r" + std::to_string(i));
    g.AddEdge(hubs[i], w, "rare");
  }
  return g;
}

// ---------------------------------------------------------------------------
// SnapshotStats: exact per-label counts vs brute force.

TEST(SnapshotStatsTest, ExactPerLabelCountsOnRandomGraph) {
  EdgeLabeledGraph g = RandomGraph(60, 240, 4, 11);
  GraphSnapshot snapshot(g);
  SnapshotStats stats(snapshot);

  ASSERT_EQ(stats.num_nodes(), g.NumNodes());
  ASSERT_EQ(stats.num_edges(), g.NumEdges());

  for (LabelId l = 0; l < g.NumLabels(); ++l) {
    uint64_t edges = 0;
    std::set<NodeId> srcs, tgts;
    for (EdgeId e = 0; e < g.NumEdges(); ++e) {
      if (g.EdgeLabel(e) != l) continue;
      ++edges;
      srcs.insert(g.Src(e));
      tgts.insert(g.Tgt(e));
    }
    EXPECT_EQ(stats.EdgeCount(l), edges) << g.LabelName(l);
    EXPECT_EQ(stats.DistinctSources(l), srcs.size()) << g.LabelName(l);
    EXPECT_EQ(stats.DistinctTargets(l), tgts.size()) << g.LabelName(l);
  }
}

TEST(SnapshotStatsTest, PredicateLevelCounts) {
  EdgeLabeledGraph g = RandomGraph(40, 160, 3, 7);
  GraphSnapshot snapshot(g);
  SnapshotStats stats(snapshot);

  LabelId a = *g.FindLabel("a");
  LabelId b = *g.FindLabel("b");
  EXPECT_EQ(stats.EdgesMatching(LabelPred::One(a)), stats.EdgeCount(a));
  EXPECT_EQ(stats.EdgesMatching(LabelPred::Any()), g.NumEdges());
  EXPECT_EQ(stats.EdgesMatching(LabelPred::None()), 0u);
  // !{a, b} counts exactly the remaining labels' edges.
  uint64_t not_ab = g.NumEdges() - stats.EdgeCount(a) - stats.EdgeCount(b);
  EXPECT_EQ(stats.EdgesMatching(LabelPred::NegSet({a, b})), not_ab);
  // Distinct-node counts for kOne are exact; kAny is capped at n.
  EXPECT_EQ(stats.SourcesMatching(LabelPred::One(a)), stats.DistinctSources(a));
  EXPECT_LE(stats.SourcesMatching(LabelPred::Any()), g.NumNodes());
}

TEST(SnapshotStatsTest, NodeLabelCounts) {
  PropertyGraph g = RandomPropertyGraph(20, 60, 10, 53);
  GraphSnapshot snapshot(g);
  SnapshotStats stats(snapshot);
  ASSERT_TRUE(stats.has_node_labels());
  LabelId n_label = *g.FindLabel("N");
  EXPECT_EQ(stats.NodeLabelCount(n_label), g.NumNodes());
  EXPECT_EQ(stats.NodesMatching(LabelPred::One(n_label)), g.NumNodes());
}

// ---------------------------------------------------------------------------
// Cost model vs exact counts.

TEST(CostModelTest, SingleLabelAtomIsExactOnChain) {
  // A 4-edge chain of `a` edges: the atom a(x, y) has exactly 4 rows.
  EdgeLabeledGraph g = Chain(4);
  GraphSnapshot snapshot(g);
  SnapshotStats stats(snapshot);

  Crpq q = ParseCrpq("q(x, y) := a(x, y)").value();
  Nfa nfa = Nfa::FromRegex(*q.atoms[0].regex, g);
  AtomEstimate est = EstimateCrpqAtom(stats, nfa, false, q.atoms[0]);
  EXPECT_EQ(est.rows, 4u);
  EXPECT_EQ(est.distinct_from, 4u);
  EXPECT_EQ(est.distinct_to, 4u);
}

TEST(CostModelTest, ConstantEndpointDividesEstimate) {
  EdgeLabeledGraph g = StarJoinGraph(10, 5, 2);
  GraphSnapshot snapshot(g);
  SnapshotStats stats(snapshot);

  Crpq free_q = ParseCrpq("q(x, y) := big1(x, y)").value();
  Crpq const_q = ParseCrpq("q(y) := big1(@c0, y)").value();
  Nfa nfa = Nfa::FromRegex(*free_q.atoms[0].regex, g);
  uint64_t free_rows = EstimateCrpqAtom(stats, nfa, false, free_q.atoms[0]).rows;
  uint64_t const_rows =
      EstimateCrpqAtom(stats, nfa, false, const_q.atoms[0]).rows;
  EXPECT_LT(const_rows, free_rows);
  // 10 distinct big1 sources: pinning one divides by exactly that.
  EXPECT_EQ(const_rows, free_rows / 10);
}

TEST(CostModelTest, RareLabelEstimatedSmallerThanBigLabel) {
  EdgeLabeledGraph g = StarJoinGraph(100, 20, 3);
  GraphSnapshot snapshot(g);
  SnapshotStats stats(snapshot);

  Crpq q = ParseCrpq("q(x) := big1(x, y), rare(x, w)").value();
  Nfa big = Nfa::FromRegex(*q.atoms[0].regex, g);
  Nfa rare = Nfa::FromRegex(*q.atoms[1].regex, g);
  uint64_t big_rows = EstimateCrpqAtom(stats, big, false, q.atoms[0]).rows;
  uint64_t rare_rows = EstimateCrpqAtom(stats, rare, false, q.atoms[1]).rows;
  EXPECT_EQ(rare_rows, 3u);
  EXPECT_EQ(big_rows, 100u * 20u);
  EXPECT_LT(rare_rows, big_rows);
}

TEST(CostModelTest, NullableRegexAddsIdentityPairs) {
  EdgeLabeledGraph g = Chain(4);  // 5 nodes
  GraphSnapshot snapshot(g);
  SnapshotStats stats(snapshot);

  Crpq q = ParseCrpq("q(x, y) := a*(x, y)").value();
  Nfa nfa = Nfa::FromRegex(*q.atoms[0].regex, g);
  AtomEstimate est =
      EstimateCrpqAtom(stats, nfa, q.atoms[0].regex->Nullable(), q.atoms[0]);
  // ε contributes the 5 identity pairs on top of the edge-bounded matches.
  EXPECT_GE(est.rows, 5u);
}

// ---------------------------------------------------------------------------
// Greedy join ordering.

TEST(GreedyJoinOrderTest, SmallestFirstThenConnected) {
  std::vector<Conjunct> conjuncts = {
      {{"x", "y"}, 100, "A"},
      {{"y", "z"}, 5, "B"},
      {{"z", "w"}, 50, "C"},
  };
  ExplainInfo explain;
  std::vector<size_t> order = GreedyJoinOrder(conjuncts, &explain);
  // B is cheapest; C (50, shares z) beats A (100, shares y).
  EXPECT_EQ(order, (std::vector<size_t>{1, 2, 0}));
  ASSERT_TRUE(explain.planned);
  ASSERT_EQ(explain.order.size(), 3u);
  EXPECT_FALSE(explain.order[0].connected);
  EXPECT_TRUE(explain.order[1].connected);
  EXPECT_TRUE(explain.order[2].connected);
}

TEST(GreedyJoinOrderTest, PrefersConnectedOverCheaperCartesian) {
  std::vector<Conjunct> conjuncts = {
      {{"x", "y"}, 10, "A"},
      {{"y", "z"}, 1, "B"},
      {{"z", "w"}, 100, "C"},
      {{"p", "q"}, 2, "D"},  // cheap but disconnected from everything
  };
  ExplainInfo explain;
  std::vector<size_t> order = GreedyJoinOrder(conjuncts, &explain);
  // B first; A and C are connected and beat the cheaper-but-cartesian D.
  EXPECT_EQ(order, (std::vector<size_t>{1, 0, 2, 3}));
  EXPECT_TRUE(explain.order[1].connected);
  EXPECT_TRUE(explain.order[2].connected);
  EXPECT_FALSE(explain.order[3].connected);
}

TEST(GreedyJoinOrderTest, TiesBreakTowardTextualOrder) {
  std::vector<Conjunct> conjuncts = {
      {{"x", "y"}, 7, "A"},
      {{"y", "z"}, 7, "B"},
      {{"z", "w"}, 7, "C"},
  };
  EXPECT_EQ(GreedyJoinOrder(conjuncts), (std::vector<size_t>{0, 1, 2}));
  std::vector<size_t> textual = TextualJoinOrder(conjuncts);
  EXPECT_EQ(textual, (std::vector<size_t>{0, 1, 2}));
}

// ---------------------------------------------------------------------------
// Relational kernel.

TEST(RelKernelTest, SemiJoinKeepsMatchingRows) {
  rel::Table<CrpqValue> a;
  a.schema = {"x", "y"};
  a.rows = {{CrpqValue(NodeId{1}), CrpqValue(NodeId{2})},
            {CrpqValue(NodeId{3}), CrpqValue(NodeId{4})},
            {CrpqValue(NodeId{5}), CrpqValue(NodeId{6})}};
  rel::Table<CrpqValue> b;
  b.schema = {"y", "z"};
  b.rows = {{CrpqValue(NodeId{2}), CrpqValue(NodeId{9})},
            {CrpqValue(NodeId{6}), CrpqValue(NodeId{9})}};
  rel::Table<CrpqValue> out = rel::SemiJoin(a, b);
  ASSERT_EQ(out.rows.size(), 2u);
  EXPECT_EQ(out.rows[0], a.rows[0]);
  EXPECT_EQ(out.rows[1], a.rows[2]);

  // No shared attributes: semijoin keeps everything iff b is non-empty.
  rel::Table<CrpqValue> c;
  c.schema = {"w"};
  EXPECT_TRUE(rel::SemiJoin(a, c).rows.empty());
  c.rows = {{CrpqValue(NodeId{0})}};
  EXPECT_EQ(rel::SemiJoin(a, c).rows.size(), 3u);
}

TEST(RelKernelTest, TrippedContextSkipsProjectNormalization) {
  // The prompt-unwinding contract: once the context has tripped, partial
  // results are about to be discarded, so ProjectHead must not burn time
  // sorting them.
  crpq_internal::Relation joined;
  joined.schema = {"x"};
  joined.rows = {{CrpqValue(NodeId{3})},
                 {CrpqValue(NodeId{1})},
                 {CrpqValue(NodeId{3})}};
  QueryContext ctx;
  ctx.Trip(StopCause::kMemoryBudget);
  std::vector<std::vector<CrpqValue>> rows;
  ASSERT_TRUE(crpq_internal::ProjectHead(joined, {"x"}, &rows, &ctx));
  // Unsorted and undeduped: exactly the raw projection.
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(std::get<NodeId>(rows[0][0]), 3u);
  EXPECT_EQ(std::get<NodeId>(rows[1][0]), 1u);
}

TEST(RelKernelTest, TrippedContextSkipsNormalizeOnCoreRelation) {
  CoreRelation r({"x"});
  r.AddRow({CoreCell(ObjectRef::Node(2))});
  r.AddRow({CoreCell(ObjectRef::Node(1))});
  r.AddRow({CoreCell(ObjectRef::Node(2))});
  QueryContext ctx;
  ctx.Trip(StopCause::kDeadline);
  r.Normalize(&ctx);
  EXPECT_EQ(r.NumRows(), 3u);  // untouched
  r.Normalize();
  EXPECT_EQ(r.NumRows(), 2u);  // untripped normalization still works
}

// ---------------------------------------------------------------------------
// Differential suite: the compiled plan's legs (planner vs textual order,
// wcoj group on/off, WHERE pushdown on/off), byte-identical.

class DifferentialTest : public ::testing::Test {};

TEST_F(DifferentialTest, CrpqShapesOnRandomGraphs) {
  const std::string queries[] = {
      // chain
      "q(x, w) := a(x, y), b(y, z), c(z, w)",
      // star
      "q(x) := a(x, y), b(x, z), c(x, w)",
      // cycle
      "q(x) := a(x, y), b(y, z), c(z, x)",
      // regex atoms + a same-variable atom
      "q(x, z) := (a b)(x, y), c*(y, z), a(z, z)",
      // two-atom with shared head variables
      "q(x, y) := (a + b)(x, y), c(y, x)",
  };
  for (uint64_t seed : {1u, 2u, 3u}) {
    EdgeLabeledGraph g = RandomGraph(30, 120, 3, seed);
    for (const std::string& q : queries) {
      ExpectPlanLegsAgree(ToPropertyGraph(g), QueryLanguage::kCrpq, q);
    }
  }
}

TEST_F(DifferentialTest, CrpqOnPessimalStarJoin) {
  EdgeLabeledGraph g = StarJoinGraph(40, 10, 3);
  ExpectPlanLegsAgree(ToPropertyGraph(g), QueryLanguage::kCrpq,
                      "q(x) := big1(x, y), big2(x, z), rare(x, w)");
  ExpectPlanLegsAgree(ToPropertyGraph(g), QueryLanguage::kCrpq,
                      "q(x, w) := big1(x, y), rare(x, w), big2(x, z)");
}

TEST_F(DifferentialTest, DlCrpqWithDataTests) {
  const std::string queries[] = {
      "q(x, z) := ( ()[a] )+ () (x, y), ()[a][k >= 3]() (y, z)",
      "q(x) := ()[a][k >= 5]() (x, y), ()[a]() (y, z), ()[a]() (z, x)",
      "q(x, y) := (k <= 2)( [a] )+ () (x, y), ()[a]() (y, y)",
  };
  for (uint64_t seed : {5u, 6u}) {
    PropertyGraph g = RandomPropertyGraph(25, 100, 8, seed);
    for (const std::string& q : queries) {
      ExpectPlanLegsAgree(g, QueryLanguage::kDlCrpq, q);
    }
  }
}

TEST_F(DifferentialTest, CoreGqlMultiPatternBlocks) {
  const std::string queries[] = {
      "MATCH (x)->(y), (y)->(z) RETURN x, z",
      "MATCH (x)->(x1), (x)->(x2), (x1)->(y) WHERE x1.k = x2.k "
      "RETURN x, y",
      "MATCH (x)->(y) RETURN x UNION MATCH (x)->(y), (y)->(z) RETURN x",
      "MATCH (x)->(y), (y)->(z) RETURN x EXCEPT MATCH (x)->(x) RETURN x",
      // label and constant-selection pushdown
      "MATCH (x)-[e]->(y), (y)->(z) WHERE x:N AND e.k = 2 AND z.k < 3 "
      "RETURN x, z",
  };
  for (uint64_t seed : {8u, 9u}) {
    PropertyGraph g = RandomPropertyGraph(20, 70, 4, seed);
    for (const std::string& q : queries) {
      ExpectPlanLegsAgree(g, QueryLanguage::kCoreGql, q);
    }
  }
}

TEST_F(DifferentialTest, ErrorsSurfaceIdenticallyUnderReordering) {
  // Unknown constants are validated in textual order before any join, so
  // the planner's reordering never changes which error the user sees.
  EdgeLabeledGraph g = StarJoinGraph(10, 4, 2);
  ExpectPlanLegsAgree(ToPropertyGraph(g), QueryLanguage::kCrpq,
                      "q(x) := big1(x, y), big2(@nope, z), rare(@missing, w)");
}

// ---------------------------------------------------------------------------
// Planner effect: the compiled plan actually reorders a pessimal query.

TEST(PlannerChoiceTest, RareAtomMovesFirstOnStarJoin) {
  PropertyGraph g = ToPropertyGraph(StarJoinGraph(50, 10, 2));
  GraphSnapshot snapshot(g);
  SnapshotStats stats(snapshot);
  Result<PlanPtr> plan =
      CompilePlan(QueryLanguage::kCrpq,
                  "q(x) := big1(x, y), big2(x, z), rare(x, w)", g, 0, {},
                  &stats);
  ASSERT_TRUE(plan.ok());
  const auto* crpq = std::get_if<CrpqPlan>(&plan.value()->compiled);
  ASSERT_NE(crpq, nullptr);
  ASSERT_EQ(crpq->join_order.size(), 3u);
  EXPECT_EQ(crpq->join_order[0], 2u);  // rare(x, w) leads
  ASSERT_TRUE(crpq->explain.planned);
  EXPECT_NE(crpq->explain.order[0].label.find("rare"), std::string::npos);
  // Every later conjunct shares x: no cartesian steps.
  EXPECT_TRUE(crpq->explain.order[1].connected);
  EXPECT_TRUE(crpq->explain.order[2].connected);
}

TEST(PlannerChoiceTest, WithoutStatsOrderIsTextual) {
  PropertyGraph g = ToPropertyGraph(StarJoinGraph(10, 4, 2));
  Result<PlanPtr> plan =
      CompilePlan(QueryLanguage::kCrpq,
                  "q(x) := big1(x, y), big2(x, z), rare(x, w)", g, 0, {},
                  nullptr);
  ASSERT_TRUE(plan.ok());
  const auto* crpq = std::get_if<CrpqPlan>(&plan.value()->compiled);
  ASSERT_NE(crpq, nullptr);
  EXPECT_EQ(crpq->join_order, (std::vector<size_t>{0, 1, 2}));
  EXPECT_FALSE(crpq->explain.planned);
}

// ---------------------------------------------------------------------------
// Plan cache: cached executions never recompile automata.

TEST(PlanCacheTest, CrpqCacheHitDoesNotRecompileNfas) {
  QueryEngine engine(ToPropertyGraph(RandomGraph(20, 60, 3, 4)));
  QueryRequest request;
  request.language = QueryLanguage::kCrpq;
  request.text = "q(x, z) := a(x, y), b(y, z)";

  Result<QueryResponse> first = engine.Execute(request);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.value().cache_hit);

  uint64_t compiles_before = Nfa::CompileCount();
  Result<QueryResponse> second = engine.Execute(request);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().cache_hit);
  EXPECT_EQ(Nfa::CompileCount(), compiles_before);
  EXPECT_EQ(second.value().text, first.value().text);
}

TEST(PlanCacheTest, DlCrpqCacheHitDoesNotRecompileNfas) {
  QueryEngine engine(RandomPropertyGraph(15, 50, 5, 21));
  QueryRequest request;
  request.language = QueryLanguage::kDlCrpq;
  request.text = "q(x, z) := ( ()[a] )+ () (x, y), ()[a][k >= 2]() (y, z)";

  Result<QueryResponse> first = engine.Execute(request);
  ASSERT_TRUE(first.ok());
  uint64_t compiles_before = DlNfa::CompileCount();
  Result<QueryResponse> second = engine.Execute(request);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().cache_hit);
  EXPECT_EQ(DlNfa::CompileCount(), compiles_before);
}

// ---------------------------------------------------------------------------
// EXPLAIN surface.

TEST(ExplainTest, CrpqExplainShowsJoinOrderWithoutExecuting) {
  QueryEngine engine(ToPropertyGraph(StarJoinGraph(30, 8, 2)));
  QueryRequest request;
  request.language = QueryLanguage::kCrpq;
  request.text = "q(x) := big1(x, y), big2(x, z), rare(x, w)";
  request.explain = true;

  Result<QueryResponse> r = engine.Execute(request);
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r.value().text.find("join order (planner)"), std::string::npos);
  EXPECT_NE(r.value().text.find("rare"), std::string::npos);
  EXPECT_NE(r.value().text.find("est_rows="), std::string::npos);
  EXPECT_EQ(r.value().num_rows, 0u);  // nothing executed
}

TEST(ExplainTest, NonConjunctiveLanguageHasNothingToReorder) {
  QueryEngine engine(ToPropertyGraph(Chain(3)));
  QueryRequest request;
  request.language = QueryLanguage::kRpq;
  request.text = "a a";
  request.explain = true;
  Result<QueryResponse> r = engine.Execute(request);
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r.value().text.find("nothing to reorder"), std::string::npos);
}

TEST(ExplainTest, CoreGqlExplainCoversEveryBlock) {
  QueryEngine engine(RandomPropertyGraph(10, 30, 3, 2));
  QueryRequest request;
  request.language = QueryLanguage::kCoreGql;
  request.text =
      "MATCH (x)->(y), (y)->(z) RETURN x "
      "UNION MATCH (x)->(x) RETURN x";
  request.explain = true;
  Result<QueryResponse> r = engine.Execute(request);
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r.value().text.find("block 1:"), std::string::npos);
  EXPECT_NE(r.value().text.find("block 2:"), std::string::npos);
}

}  // namespace
}  // namespace gqzoo
