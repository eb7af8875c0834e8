// Tests for the worst-case-optimal join path: the trie-iterator kernel
// (src/rel/wcoj.h) on hand-computed cyclic patterns, the planner's cyclic-
// core detection (src/planner/planner.h), and the guarantee that a plan's
// wcoj / binary / textual legs render byte-identical results across crpq,
// dl-crpq, and coregql.

#include "src/rel/wcoj.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/engine/engine.h"
#include "src/engine/language.h"
#include "src/fuzz/plan_legs.h"
#include "src/graph/csr.h"
#include "src/graph/graph.h"
#include "src/planner/planner.h"
#include "src/planner/stats.h"
#include "src/util/failpoint.h"
#include "tests/test_util.h"

namespace gqzoo {
namespace {

using Row = std::vector<NodeId>;
using testing_util::ExpectPlanLegsAgree;

QueryRequest Req(QueryLanguage language, const std::string& text) {
  QueryRequest request;
  request.language = language;
  request.text = text;
  return request;
}

PropertyGraph ToPropertyGraph(const EdgeLabeledGraph& g) {
  PropertyGraph pg;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    pg.AddNode(std::string(g.NodeName(v)), "N");
  }
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    pg.AddEdge(g.Src(e), g.Tgt(e), std::string(g.LabelName(g.EdgeLabel(e))));
  }
  return pg;
}

// A graph with two labeled triangles sharing no edges, plus chain noise
// that matches a/b/c individually but closes no triangle:
//   triangle 1: a(0,1), b(1,2), c(0,2)
//   triangle 2: a(3,4), b(4,5), c(3,5)
//   noise:      a(6,7), b(7,8)  (no chord c(6,8))
EdgeLabeledGraph TwoTriangles() {
  EdgeLabeledGraph g;
  for (int i = 0; i < 9; ++i) g.AddNode("n" + std::to_string(i));
  g.AddEdge(0, 1, "a");
  g.AddEdge(1, 2, "b");
  g.AddEdge(0, 2, "c");
  g.AddEdge(3, 4, "a");
  g.AddEdge(4, 5, "b");
  g.AddEdge(3, 5, "c");
  g.AddEdge(6, 7, "a");
  g.AddEdge(7, 8, "b");
  return g;
}

rel::WcojSpec TriangleSpec(const EdgeLabeledGraph& g) {
  // q(x,y,z) :- a(x,y), b(y,z), c(x,z), elimination order x, y, z.
  rel::WcojSpec spec;
  spec.vars = {"x", "y", "z"};
  spec.atoms = {{0, 1, *g.FindLabel("a")},
                {1, 2, *g.FindLabel("b")},
                {0, 2, *g.FindLabel("c")}};
  spec.conjuncts = {0, 1, 2};
  return spec;
}

TEST(WcojEvalTest, TriangleHandComputed) {
  EdgeLabeledGraph g = TwoTriangles();
  GraphSnapshot snap(g);
  std::vector<Row> rows = rel::WcojEval(snap, TriangleSpec(g), 32);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (Row{0, 1, 2}));
  EXPECT_EQ(rows[1], (Row{3, 4, 5}));
}

TEST(WcojEvalTest, OutputIsSortedInEliminationOrder) {
  // Several triangles through the same apex, inserted out of order: the
  // kernel must still emit rows in lexicographic (x, y, z) order.
  EdgeLabeledGraph g;
  for (int i = 0; i < 6; ++i) g.AddNode("n" + std::to_string(i));
  for (NodeId y : {NodeId(4), NodeId(2), NodeId(3)}) {
    g.AddEdge(0, y, "a");
    g.AddEdge(y, 5, "b");
  }
  g.AddEdge(0, 5, "c");
  GraphSnapshot snap(g);
  std::vector<Row> rows = rel::WcojEval(snap, TriangleSpec(g), 32);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0], (Row{0, 2, 5}));
  EXPECT_EQ(rows[1], (Row{0, 3, 5}));
  EXPECT_EQ(rows[2], (Row{0, 4, 5}));
}

TEST(WcojEvalTest, FourCliqueHandComputed) {
  // Directed 4-clique on {0,1,2,3} with label l on every forward edge,
  // queried as the 6-atom clique pattern: exactly one result row.
  EdgeLabeledGraph g;
  for (int i = 0; i < 5; ++i) g.AddNode("n" + std::to_string(i));
  for (uint32_t i = 0; i < 4; ++i) {
    for (uint32_t j = i + 1; j < 4; ++j) g.AddEdge(i, j, "l");
  }
  g.AddEdge(0, 4, "l");  // dangling spoke, not in any clique
  GraphSnapshot snap(g);
  rel::WcojSpec spec;
  spec.vars = {"w", "x", "y", "z"};
  LabelId l = *g.FindLabel("l");
  spec.atoms = {{0, 1, l}, {0, 2, l}, {0, 3, l},
                {1, 2, l}, {1, 3, l}, {2, 3, l}};
  spec.conjuncts = {0, 1, 2, 3, 4, 5};
  std::vector<Row> rows = rel::WcojEval(snap, spec, 32);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (Row{0, 1, 2, 3}));
}

TEST(WcojEvalTest, DiamondHandComputed) {
  // Diamond (4-cycle) x -a-> y -b-> w, x -c-> z -d-> w; two diamonds, one
  // sharing its rim nodes with chain noise.
  EdgeLabeledGraph g;
  for (int i = 0; i < 9; ++i) g.AddNode("n" + std::to_string(i));
  g.AddEdge(0, 1, "a");
  g.AddEdge(1, 3, "b");
  g.AddEdge(0, 2, "c");
  g.AddEdge(2, 3, "d");
  g.AddEdge(4, 5, "a");
  g.AddEdge(5, 7, "b");
  g.AddEdge(4, 6, "c");
  g.AddEdge(6, 7, "d");
  g.AddEdge(8, 1, "a");  // a-edge into a rim node, closes nothing
  GraphSnapshot snap(g);
  rel::WcojSpec spec;  // vars x, y, z, w
  spec.vars = {"x", "y", "z", "w"};
  spec.atoms = {{0, 1, *g.FindLabel("a")},
                {1, 3, *g.FindLabel("b")},
                {0, 2, *g.FindLabel("c")},
                {2, 3, *g.FindLabel("d")}};
  spec.conjuncts = {0, 1, 2, 3};
  std::vector<Row> rows = rel::WcojEval(snap, spec, 32);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (Row{0, 1, 2, 3}));
  EXPECT_EQ(rows[1], (Row{4, 5, 6, 7}));
}

TEST(WcojEvalTest, MemoryBudgetTripsAsFirstCause) {
  EdgeLabeledGraph g = TwoTriangles();
  GraphSnapshot snap(g);
  QueryContext ctx;
  ResourceBudgets budgets;
  budgets.memory_bytes = 64;  // the adjacency caches alone exceed this
  ctx.set_budgets(budgets);
  std::vector<Row> rows = rel::WcojEval(snap, TriangleSpec(g), 32, &ctx);
  EXPECT_EQ(ctx.stop_cause(), StopCause::kMemoryBudget);
  EXPECT_LT(rows.size(), 2u);
}

TEST(WcojEvalTest, AllocFailpointTripsAsMemoryBudget) {
  EdgeLabeledGraph g = TwoTriangles();
  GraphSnapshot snap(g);
  QueryContext ctx;
  ResourceBudgets budgets;
  budgets.memory_bytes = 1ull << 40;
  ctx.set_budgets(budgets);
  ScopedFailpoint fp("crpq.wcoj.alloc");
  std::vector<Row> rows =
      rel::WcojEval(snap, TriangleSpec(g), 32, &ctx, "crpq.wcoj.alloc");
  EXPECT_EQ(ctx.stop_cause(), StopCause::kMemoryBudget);
  EXPECT_TRUE(rows.empty());
}

// --------------------------------------------------------------------------
// Planner core detection.
// --------------------------------------------------------------------------

std::vector<WcojCandidate> Candidates(
    std::vector<std::pair<std::string, std::string>> edges) {
  std::vector<WcojCandidate> out;
  for (size_t i = 0; i < edges.size(); ++i) {
    WcojCandidate c;
    c.conjunct = i;
    c.from = edges[i].first;
    c.to = edges[i].second;
    out.push_back(std::move(c));
  }
  return out;
}

TEST(DetectWcojCoreTest, TriangleIsDetected) {
  auto core = DetectWcojCore(
      Candidates({{"x", "y"}, {"y", "z"}, {"x", "z"}}));
  ASSERT_TRUE(core.has_value());
  EXPECT_EQ(core->conjuncts, (std::vector<size_t>{0, 1, 2}));
  EXPECT_EQ(core->var_order.size(), 3u);
}

TEST(DetectWcojCoreTest, ChainAndStarAreNot) {
  EXPECT_FALSE(DetectWcojCore(
                   Candidates({{"x", "y"}, {"y", "z"}, {"z", "w"}}))
                   .has_value());
  EXPECT_FALSE(DetectWcojCore(
                   Candidates({{"h", "a"}, {"h", "b"}, {"h", "c"}}))
                   .has_value());
}

TEST(DetectWcojCoreTest, TwoCycleIsDeliberatelyNot) {
  // R(x,y), S(y,x) is a 2-cycle; binary join handles it optimally, and the
  // detector's simple-graph view keeps it off the wcoj path.
  EXPECT_FALSE(
      DetectWcojCore(Candidates({{"x", "y"}, {"y", "x"}}))
          .has_value());
}

TEST(DetectWcojCoreTest, PendantEdgesArePrunedOffTheCore) {
  // Triangle plus a tail z -> w: the tail is stripped, the triangle stays.
  auto core = DetectWcojCore(
      Candidates({{"x", "y"}, {"y", "z"}, {"x", "z"}, {"z", "w"}}));
  ASSERT_TRUE(core.has_value());
  EXPECT_EQ(core->conjuncts, (std::vector<size_t>{0, 1, 2}));
}

// --------------------------------------------------------------------------
// Plan-leg differential, explain and metrics checks.
// --------------------------------------------------------------------------

TEST(WcojEngineTest, TriangleByteIdenticalAcrossLanguages) {
  PropertyGraph g = ToPropertyGraph(TwoTriangles());
  EXPECT_EQ(ExpectPlanLegsAgree(g, QueryLanguage::kCrpq,
                                "q(x, y, z) :- a(x, y), b(y, z), c(x, z)"),
            2u);
  EXPECT_EQ(
      ExpectPlanLegsAgree(g, QueryLanguage::kDlCrpq,
                          "q(x, y, z) := [a] (x, y), [b] (y, z), [c] (x, z)"),
      2u);
  EXPECT_EQ(ExpectPlanLegsAgree(g, QueryLanguage::kCoreGql,
                                "MATCH (x)-[:a]->(y), (y)-[:b]->(z), "
                                "(x)-[:c]->(z) RETURN x, y, z"),
            2u);
}

TEST(WcojEngineTest, StarWithChordByteIdentical) {
  // Star h -> leaves with an extra chord between two leaves: the cyclic
  // core is the (h, l1, l2) triangle; the other spokes join binarily.
  EdgeLabeledGraph g;
  g.AddNode("h");
  for (int i = 1; i <= 5; ++i) g.AddNode("l" + std::to_string(i));
  for (uint32_t i = 1; i <= 5; ++i) g.AddEdge(0, i, "spoke");
  g.AddEdge(1, 2, "chord");
  g.AddEdge(3, 4, "chord");
  EXPECT_EQ(ExpectPlanLegsAgree(
                ToPropertyGraph(g), QueryLanguage::kCrpq,
                "q(h, u, v) :- spoke(h, u), spoke(h, v), chord(u, v)"),
            2u);  // (0,1,2) and (0,3,4)
}

TEST(WcojEngineTest, LargerCliquePatternsStayIdentical) {
  // Random-ish dense single-label graph; 4-clique and diamond patterns.
  EdgeLabeledGraph g;
  const uint32_t n = 24;
  for (uint32_t i = 0; i < n; ++i) g.AddNode("n" + std::to_string(i));
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = i + 1; j < n; ++j) {
      if ((i * 7 + j * 13) % 3 == 0) g.AddEdge(i, j, "e");
    }
  }
  PropertyGraph pg = ToPropertyGraph(g);
  ExpectPlanLegsAgree(pg, QueryLanguage::kCrpq,
                      "q(w, x, y, z) :- e(w, x), e(w, y), e(w, z), "
                      "e(x, y), e(x, z), e(y, z)");
  ExpectPlanLegsAgree(pg, QueryLanguage::kCrpq,
                      "q(x, y, z, w) :- e(x, y), e(y, w), e(x, z), e(z, w)");
}

TEST(WcojEngineTest, ExplainRendersWcojGroup) {
  QueryEngine engine(ToPropertyGraph(TwoTriangles()));
  QueryRequest request =
      Req(QueryLanguage::kCrpq, "q(x, y, z) :- a(x, y), b(y, z), c(x, z)");
  request.explain = true;
  Result<QueryResponse> r = engine.Execute(request);
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r.value().text.find("wcoj("), std::string::npos) << r.value().text;
  EXPECT_NE(r.value().text.find("conjuncts=[0, 1, 2]"), std::string::npos)
      << r.value().text;
  EXPECT_EQ(engine.metrics().wcoj_plans.value(), 1u);
}

TEST(WcojEngineTest, AcyclicCoreDoesNotPickWcoj) {
  QueryEngine engine(ToPropertyGraph(TwoTriangles()));
  QueryRequest request =
      Req(QueryLanguage::kCrpq, "q(x, z) :- a(x, y), b(y, z)");
  request.explain = true;
  Result<QueryResponse> r = engine.Execute(request);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().text.find("wcoj("), std::string::npos) << r.value().text;
  EXPECT_EQ(engine.metrics().wcoj_plans.value(), 0u);

  // Executing it is also wcoj-free: no per-language wcoj selection.
  request.explain = false;
  ASSERT_TRUE(engine.Execute(request).ok());
  EXPECT_EQ(engine.metrics()
                .wcoj_by_language[static_cast<size_t>(QueryLanguage::kCrpq)]
                .value(),
            0u);
}

TEST(WcojEngineTest, ClosureAtomsStayOnTheBinaryPath) {
  // A transitive-closure atom is not a single-label edge relation; a
  // "cycle" through it must not be claimed by the wcoj.
  QueryEngine engine(ToPropertyGraph(TwoTriangles()));
  QueryRequest request = Req(QueryLanguage::kCrpq,
                             "q(x, y, z) :- a+(x, y), b(y, z), c(x, z)");
  request.explain = true;
  Result<QueryResponse> r = engine.Execute(request);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().text.find("wcoj("), std::string::npos) << r.value().text;
}

TEST(WcojEngineTest, MetricsCountWcojSelections) {
  QueryEngine engine(ToPropertyGraph(TwoTriangles()));
  QueryRequest request =
      Req(QueryLanguage::kCrpq, "q(x, y, z) :- a(x, y), b(y, z), c(x, z)");
  ASSERT_TRUE(engine.Execute(request).ok());
  EXPECT_EQ(engine.metrics().wcoj_plans.value(), 1u);
  EXPECT_EQ(engine.metrics()
                .wcoj_by_language[static_cast<size_t>(QueryLanguage::kCrpq)]
                .value(),
            1u);
  std::string report = engine.metrics().ReportText();
  EXPECT_NE(report.find("wcoj_plans"), std::string::npos);
  EXPECT_NE(report.find("wcoj[crpq]"), std::string::npos) << report;
}

TEST(WcojEngineTest, NoWcojLegSkipsTheWcojJoin) {
  // The plan carries the group; only its no-wcoj leg keeps the join
  // binary, which the wcoj join's alloc fail-point proves: armed, it trips
  // the planned leg and is never reached by the no-wcoj leg.
  PropertyGraph g = ToPropertyGraph(TwoTriangles());
  GraphSnapshot snapshot(g);
  SnapshotStats stats(snapshot);
  Result<PlanPtr> plan =
      CompilePlan(QueryLanguage::kCrpq,
                  "q(x, y, z) :- a(x, y), b(y, z), c(x, z)", g, 0, {}, &stats);
  ASSERT_TRUE(plan.ok()) << plan.error().message();
  EXPECT_TRUE(std::get<CrpqPlan>(plan.value()->compiled).wcoj);

  Failpoint::DisarmAll();
  ScopedFailpoint armed("crpq.wcoj.alloc");
  const uint64_t fired = Failpoint::FireCount("crpq.wcoj.alloc");
  QueryContext planned_ctx;
  ConjunctiveRun run;
  run.snapshot = &snapshot;
  run.cancel = &planned_ctx;
  Result<QueryResponse> planned = fuzz::RunPlan(*plan.value(), g, run);
  ASSERT_FALSE(planned.ok());
  EXPECT_EQ(planned.error().code(), ErrorCode::kResourceExhausted);
  EXPECT_EQ(Failpoint::FireCount("crpq.wcoj.alloc"), fired + 1);

  QueryContext binary_ctx;
  run.cancel = &binary_ctx;
  Result<QueryResponse> binary = fuzz::RunPlan(
      fuzz::PlanForLeg(*plan.value(), fuzz::PlanLeg::kNoWcoj), g, run);
  ASSERT_TRUE(binary.ok()) << binary.error().message();
  EXPECT_EQ(binary.value().num_rows, 2u);
  EXPECT_EQ(Failpoint::FireCount("crpq.wcoj.alloc"), fired + 1);
}

}  // namespace
}  // namespace gqzoo
