// Walk logic (Section 7.1, "A Logic for Graphs"): bounded model checking
// of path-quantified first-order properties, cross-checked against the
// dl-RPQ evaluator on the increasing-edge-values query.

#include <gtest/gtest.h>

#include <set>

#include "src/datatest/dl_eval.h"
#include "src/graph/builtin_graphs.h"
#include "src/graph/generators.h"
#include "src/graph/graph_io.h"
#include "src/logic/walk_logic.h"
#include "src/regex/parser.h"

namespace gqzoo {
namespace {

using F = WlFormula;

// "Every edge of π is labeled `label` and π is nonempty."
WlFormulaPtr NonEmptyAllLabeled(const std::string& walk,
                                const std::string& label) {
  return F::And(F::ExistsPos("p0", walk, F::EdgeLabel("p0", label)),
                F::ForallPos("q0", walk, F::EdgeLabel("q0", label)));
}

// "Edge property `k` strictly increases along π":
// ∀p ∀q (¬(p < q) ∨ prop(p).k < prop(q).k).
WlFormulaPtr Increasing(const std::string& walk) {
  return F::ForallPos(
      "p", walk,
      F::ForallPos("q", walk,
                   F::Or(F::Not(F::PosLess("p", "q")),
                         F::PropCompare("p", "k", CompareOp::kLt, "q", "k"))));
}

PropertyGraph ValueChain(const std::vector<int64_t>& edge_values) {
  PropertyGraph g;
  std::vector<NodeId> nodes;
  for (size_t i = 0; i <= edge_values.size(); ++i) {
    nodes.push_back(g.AddNode("n" + std::to_string(i), "N"));
  }
  for (size_t i = 0; i < edge_values.size(); ++i) {
    EdgeId e = g.AddEdge(nodes[i], nodes[i + 1], "a");
    g.SetProperty(ObjectRef::Edge(e), "k", Value(edge_values[i]));
  }
  return g;
}

TEST(WalkLogicTest, BasicExistence) {
  PropertyGraph g = Figure3Graph();
  auto some = [&](const std::string& label) {
    return F::ExistsNode(
        "x", F::ExistsNode("y", F::ExistsWalk("pi", "x", "y",
                                              NonEmptyAllLabeled("pi",
                                                                 label))));
  };
  EXPECT_TRUE(CheckWalkLogic(g, *some("Transfer")).value());
  EXPECT_FALSE(CheckWalkLogic(g, *some("Nothing")).value());
}

TEST(WalkLogicTest, EmptyWalkMakesForallVacuous) {
  PropertyGraph g = Figure3Graph();
  WlFormulaPtr phi = F::ExistsNode(
      "x", F::ExistsWalk("pi", "x", "x",
                         F::ForallPos("p", "pi",
                                      F::EdgeLabel("p", "Nothing"))));
  EXPECT_TRUE(CheckWalkLogic(g, *phi).value());
}

TEST(WalkLogicTest, AnchoredIncreasingOnProp23Chain) {
  PropertyGraph g = ValueChain({3, 4, 1, 2});
  WlFormulaPtr exists_increasing =
      F::ExistsWalk("pi", "x", "y",
                    F::And(F::ExistsPos("p0", "pi", F::EdgeLabel("p0", "a")),
                           Increasing("pi")));
  auto check = [&](const char* from, const char* to) {
    return CheckWalkLogic(g, *exists_increasing, {},
                          {{"x", *g.FindNode(from)}, {"y", *g.FindNode(to)}})
        .value();
  };
  EXPECT_TRUE(check("n0", "n2"));   // 3,4 increases
  EXPECT_FALSE(check("n0", "n4"));  // 3,4,1,2 does not
  EXPECT_TRUE(check("n2", "n4"));   // 1,2 increases
  EXPECT_FALSE(check("n1", "n3"));  // 4,1 does not
}

TEST(WalkLogicTest, ForallIsNegationOfExists) {
  PropertyGraph g = ValueChain({3, 4, 1, 2});
  // ∀π(x,y) ¬increasing  ≡  ¬∃π(x,y) increasing (walks are bounded the
  // same way on both sides).
  WlFormulaPtr all_bad =
      F::ForallWalk("pi", "x", "y", F::Not(Increasing("pi")));
  WlFormulaPtr some_good = F::ExistsWalk("pi", "x", "y", Increasing("pi"));
  for (NodeId x = 0; x < g.NumNodes(); ++x) {
    for (NodeId y = 0; y < g.NumNodes(); ++y) {
      std::map<std::string, NodeId> bind = {{"x", x}, {"y", y}};
      EXPECT_EQ(CheckWalkLogic(g, *all_bad, {}, bind).value(),
                !CheckWalkLogic(g, *some_good, {}, bind).value())
          << x << "->" << y;
    }
  }
}

TEST(WalkLogicTest, AgreesWithDlRpqOnIncreasingEdges) {
  // Cross-evaluator check: ∃π(x,y) (nonempty ∧ increasing) must equal the
  // dl-RPQ `()[a][x := k]((_)[a][k > x][x := k])*()` pair by pair.
  PropertyGraph g = ValueChain({1, 5, 2, 7, 3});
  DlNfa nfa = DlNfa::FromRegex(
      *ParseRegex("()[a][x := k]( (_)[a][k > x][x := k] )*()",
                  RegexDialect::kDl)
           .ValueOrDie(),
      g);
  GraphSnapshot snapshot(g);
  DlEvaluator evaluator(g, nfa, &snapshot);
  std::set<std::pair<NodeId, NodeId>> dl_pairs;
  for (const auto& [u, v] : evaluator.AllPairs()) dl_pairs.insert({u, v});

  WlFormulaPtr wl = F::ExistsWalk(
      "pi", "x", "y",
      F::And(F::ExistsPos("p0", "pi", F::EdgeLabel("p0", "a")),
             Increasing("pi")));
  WalkLogicOptions options;
  options.max_walk_length = 6;
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      bool wl_holds =
          CheckWalkLogic(g, *wl, options, {{"x", u}, {"y", v}}).value();
      EXPECT_EQ(wl_holds, dl_pairs.count({u, v}) > 0) << u << "->" << v;
    }
  }
}

TEST(WalkLogicTest, IncidenceAtoms) {
  PropertyGraph g = ValueChain({1, 2});
  // The first position of a nonempty walk from x starts at x:
  // ∃π(x,y) ∃p (¬∃q q<p ∧ src(p) = x).
  WlFormulaPtr phi = F::ExistsWalk(
      "pi", "x", "y",
      F::ExistsPos("p", "pi",
                   F::And(F::Not(F::ExistsPos("q", "pi",
                                              F::PosLess("q", "p"))),
                          F::SrcIs("p", "x"))));
  EXPECT_TRUE(CheckWalkLogic(g, *phi, {},
                             {{"x", *g.FindNode("n0")},
                              {"y", *g.FindNode("n2")}})
                  .value());
  // tgt of the last position is y.
  WlFormulaPtr last = F::ExistsWalk(
      "pi", "x", "y",
      F::ExistsPos("p", "pi",
                   F::And(F::Not(F::ExistsPos("q", "pi",
                                              F::PosLess("p", "q"))),
                          F::TgtIs("p", "y"))));
  EXPECT_TRUE(CheckWalkLogic(g, *last, {},
                             {{"x", *g.FindNode("n0")},
                              {"y", *g.FindNode("n2")}})
                  .value());
}

TEST(WalkLogicTest, NodeQuantifiersAndEquality) {
  PropertyGraph g = ToPropertyGraph(Cycle(3));
  // Every node lies on a nonempty walk back to itself (cycle).
  WlFormulaPtr phi = F::ForallNode(
      "x", F::ExistsWalk("pi", "x", "x",
                         F::ExistsPos("p", "pi", F::EdgeLabel("p", "a"))));
  EXPECT_TRUE(CheckWalkLogic(g, *phi).value());
  // On a chain this fails.
  PropertyGraph chain = ToPropertyGraph(Chain(3));
  EXPECT_FALSE(CheckWalkLogic(chain, *phi).value());
  // x = y sanity.
  WlFormulaPtr eq = F::ExistsNode(
      "x", F::ExistsNode("y", F::And(F::NodeEq("x", "y"),
                                     F::Not(F::NodeEq("x", "x")))));
  EXPECT_FALSE(CheckWalkLogic(g, *eq).value());
}

TEST(WalkLogicTest, UnboundVariablesAreErrors) {
  PropertyGraph g = ValueChain({1});
  EXPECT_FALSE(CheckWalkLogic(g, *F::NodeEq("x", "y")).ok());
  EXPECT_FALSE(
      CheckWalkLogic(g, *F::ExistsWalk("pi", "x", "y",
                                       F::PosLess("p", "q")))
          .ok());
  EXPECT_FALSE(
      CheckWalkLogic(g, *F::ExistsNode("x", F::ExistsPos("p", "pi",
                                                         F::PosLess("p", "p"))))
          .ok());
}

TEST(WalkLogicTest, ToStringIsReadable) {
  WlFormulaPtr phi = F::ExistsWalk("pi", "x", "y", Increasing("pi"));
  EXPECT_EQ(phi->ToString(),
            "exists walk pi(x, y). forall p in pi. forall q in pi. "
            "(not (p < q) or prop(p).k < prop(q).k)");
}

}  // namespace
}  // namespace gqzoo
