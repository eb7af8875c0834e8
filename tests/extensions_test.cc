// Tests for the Section 7 / Remark 9 extensions: two-way navigation
// (2RPQs), RPQ containment, and ordered (k-shortest) enumeration.

#include <gtest/gtest.h>

#include <set>

#include "src/automata/operations.h"
#include "src/crpq/crpq_parser.h"
#include "src/crpq/eval.h"
#include "src/graph/builtin_graphs.h"
#include "src/graph/generators.h"
#include "src/pmr/build.h"
#include "src/pmr/enumerate.h"
#include "src/regex/printer.h"
#include "src/rpq/rpq_eval.h"
#include "tests/test_util.h"

namespace gqzoo {
namespace {

using testing_util::Rx;
using testing_util::SnapshotEvalCrpq;
using testing_util::SnapshotEvalRpq;

TEST(TwoWayParserTest, InverseAtoms) {
  RegexPtr r = Rx("~a");
  ASSERT_EQ(r->op(), Regex::Op::kAtom);
  EXPECT_TRUE(r->atom().inverse);
  EXPECT_TRUE(HasInverseAtoms(*r));
  EXPECT_FALSE(HasInverseAtoms(*Rx("a b*")));
  EXPECT_TRUE(HasInverseAtoms(*Rx("(a ~b)*")));
  // Inverse wildcard and capture.
  EXPECT_TRUE(Rx("~_")->atom().inverse);
  EXPECT_TRUE(Rx("~a^z")->atom().inverse);
  // ~ applies to atoms only.
  EXPECT_FALSE(ParseRegex("~(a b)", RegexDialect::kPlain).ok());
  // Not available in the dl dialect.
  EXPECT_FALSE(ParseRegex("~[a]", RegexDialect::kDl).ok());
}

TEST(TwoWayParserTest, PrintRoundTrip) {
  for (const char* text : {"~a", "(a ~a)*", "~_ b", "a ~!{b}"}) {
    RegexPtr r = Rx(text);
    std::string printed = RegexToString(*r, RegexDialect::kPlain);
    Result<RegexPtr> reparsed = ParseRegex(printed, RegexDialect::kPlain);
    ASSERT_TRUE(reparsed.ok()) << printed;
    EXPECT_EQ(RegexToString(*reparsed.value(), RegexDialect::kPlain),
              printed);
  }
}

TEST(TwoWayEvalTest, BackwardStep) {
  // u -a-> v: ~a connects v to u.
  EdgeLabeledGraph g = Chain(2);  // u1 -> u2 -> u3
  auto pairs = SnapshotEvalRpq(g, *Rx("~a"));
  std::set<std::pair<NodeId, NodeId>> set(pairs.begin(), pairs.end());
  EXPECT_EQ(set, (std::set<std::pair<NodeId, NodeId>>{{1, 0}, {2, 1}}));
}

TEST(TwoWayEvalTest, ZigZag) {
  // a ~a: forward then backward — reaches siblings sharing a parent edge
  // target... on a chain it returns to the start.
  EdgeLabeledGraph g = Chain(3);
  auto pairs = SnapshotEvalRpq(g, *Rx("a ~a"));
  std::set<std::pair<NodeId, NodeId>> set(pairs.begin(), pairs.end());
  EXPECT_EQ(set, (std::set<std::pair<NodeId, NodeId>>{{0, 0}, {1, 1},
                                                      {2, 2}}));
  // On a "V" shape u -> w <- v, a ~a connects u to v.
  EdgeLabeledGraph v;
  NodeId a = v.AddNode("a");
  NodeId b = v.AddNode("b");
  NodeId w = v.AddNode("w");
  v.AddEdge(a, w, "a");
  v.AddEdge(b, w, "a");
  auto vpairs = SnapshotEvalRpq(v, *Rx("a ~a"));
  std::set<std::pair<NodeId, NodeId>> vset(vpairs.begin(), vpairs.end());
  EXPECT_TRUE(vset.count({a, b}));
  EXPECT_TRUE(vset.count({b, a}));
  EXPECT_FALSE(vset.count({a, w}));
}

TEST(TwoWayEvalTest, TwoWayReachabilityOnFigure2) {
  // (Transfer|~Transfer)*: the undirected connectivity over transfers —
  // connects all accounts both ways without needing the full cycle.
  EdgeLabeledGraph g = Figure2Graph();
  Nfa nfa = Nfa::FromRegex(*Rx("(Transfer|~Transfer)*"), g);
  EXPECT_TRUE(nfa.HasInverse());
  std::vector<NodeId> from_a1 =
      EvalRpqFrom(GraphSnapshot(g), nfa, *g.FindNode("a1"));
  std::set<NodeId> set(from_a1.begin(), from_a1.end());
  for (const char* name : {"a1", "a2", "a3", "a4", "a5", "a6"}) {
    EXPECT_TRUE(set.count(*g.FindNode(name))) << name;
  }
  // Entity nodes are not reached by Transfer edges in either direction.
  EXPECT_FALSE(set.count(*g.FindNode("Megan")));
}

TEST(TwoWayEvalTest, BruteForceAgreement) {
  // Independent oracle: explicit traversal-sequence search.
  for (uint64_t seed : {61, 62, 63}) {
    EdgeLabeledGraph g = RandomGraph(6, 10, 2, seed);
    RegexPtr r = Rx("a (~b | b) ~a");
    Nfa nfa = Nfa::FromRegex(*r, g);
    auto pairs = EvalRpq(GraphSnapshot(g), nfa);
    std::set<std::pair<NodeId, NodeId>> fast(pairs.begin(), pairs.end());
    // Oracle: BFS over (node, state) with explicit forward/backward moves,
    // structured differently from the evaluator (adjacency recomputed).
    std::set<std::pair<NodeId, NodeId>> slow;
    for (NodeId u = 0; u < g.NumNodes(); ++u) {
      std::set<std::pair<NodeId, uint32_t>> seen = {{u, nfa.initial()}};
      std::vector<std::pair<NodeId, uint32_t>> stack(seen.begin(), seen.end());
      while (!stack.empty()) {
        auto [v, q] = stack.back();
        stack.pop_back();
        if (nfa.accepting(q)) slow.insert({u, v});
        for (const Nfa::Transition& t : nfa.Out(q)) {
          for (EdgeId e = 0; e < g.NumEdges(); ++e) {
            if (!t.pred.Matches(g.EdgeLabel(e))) continue;
            NodeId from = t.inverse ? g.Tgt(e) : g.Src(e);
            NodeId to = t.inverse ? g.Src(e) : g.Tgt(e);
            if (from != v) continue;
            if (seen.insert({to, t.to}).second) stack.push_back({to, t.to});
          }
        }
      }
    }
    EXPECT_EQ(fast, slow) << "seed " << seed;
  }
}

TEST(TwoWayEvalTest, CrpqWithInverseAtoms) {
  EdgeLabeledGraph g = Figure2Graph();
  // Accounts sharing an owner-like pattern: x and y both transfer to a
  // common account: Transfer ~Transfer.
  Result<CrpqResult> r =
      SnapshotEvalCrpq(g, ParseCrpq("q(x, y) := (Transfer ~Transfer)(x, y)")
                      .ValueOrDie());
  ASSERT_TRUE(r.ok()) << r.error().message();
  // t2/t5: a3 -> a2 twice, so (a3, a3); t3: a2 -> a4 and t6: a3 -> a4, so
  // (a2, a3) and (a3, a2).
  std::set<std::string> rows;
  for (const auto& row : r.value().rows) {
    rows.insert(std::string(g.NodeName(std::get<NodeId>(row[0]))) + "->" +
                std::string(g.NodeName(std::get<NodeId>(row[1]))));
  }
  EXPECT_TRUE(rows.count("a2->a3"));
  EXPECT_TRUE(rows.count("a3->a2"));
  // Inverse atoms with list variables are rejected (one-way paths).
  Result<CrpqResult> bad =
      SnapshotEvalCrpq(g,
                       ParseCrpq("q(z) := (~Transfer^z)(x, y)").ValueOrDie());
  EXPECT_FALSE(bad.ok());
}

TEST(ContainmentTest, LanguageInclusion) {
  EdgeLabeledGraph g = Clique(2);
  g.InternLabel("b");
  auto nfa = [&](const char* text) { return Nfa::FromRegex(*Rx(text), g); };
  EXPECT_TRUE(IsContainedIn(nfa("a"), nfa("a|b")));
  EXPECT_TRUE(IsContainedIn(nfa("(a a)*"), nfa("a*")));
  EXPECT_FALSE(IsContainedIn(nfa("a*"), nfa("(a a)*")));
  EXPECT_TRUE(IsContainedIn(nfa("a{2,4}"), nfa("a+")));
  EXPECT_FALSE(IsContainedIn(nfa("a?"), nfa("a")));
  EXPECT_TRUE(IsContainedIn(nfa("a b|b a"), nfa("_ _")));
  EXPECT_FALSE(IsContainedIn(nfa("_"), nfa("a|b")));  // wildcard is larger
  // Containment both ways = equivalence.
  EXPECT_TRUE(IsContainedIn(nfa("(((a*)*)*)*"), nfa("a*")));
  EXPECT_TRUE(IsContainedIn(nfa("a*"), nfa("(((a*)*)*)*")));
}

TEST(OrderedEnumerationTest, NondecreasingLengths) {
  EdgeLabeledGraph g = Figure2Graph();
  Nfa nfa = Nfa::FromRegex(*Rx("(Transfer^z)+"), g);
  Pmr pmr =
      BuildPmrBetween(GraphSnapshot(g), nfa, *g.FindNode("a3"),
                      *g.FindNode("a5"));
  EnumerationLimits limits;
  limits.max_results = 50;
  size_t last = 0;
  size_t count = 0;
  EnumeratePathBindingsByLength(pmr, limits, [&](const PathBinding& pb) {
    EXPECT_GE(pb.path.Length(), last);
    last = pb.path.Length();
    ++count;
    return true;
  });
  EXPECT_EQ(count, 50u);  // infinitely many exist; the first 50 stream out
}

TEST(OrderedEnumerationTest, MatchesDfsEnumerationAsSets) {
  EdgeLabeledGraph g = RandomGraph(6, 9, 2, 71);
  Nfa nfa = Nfa::FromRegex(*Rx("(a|b)+"), g);
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      Pmr pmr = BuildPmrBetween(GraphSnapshot(g), nfa, u, v);
      EnumerationLimits limits;
      limits.max_length = 4;
      std::vector<PathBinding> dfs = CollectPathBindings(pmr, limits);
      std::vector<PathBinding> ordered;
      EnumeratePathBindingsByLength(pmr, limits,
                                    [&ordered](const PathBinding& pb) {
                                      ordered.push_back(pb);
                                      return true;
                                    });
      std::sort(ordered.begin(), ordered.end());
      ordered.erase(std::unique(ordered.begin(), ordered.end()),
                    ordered.end());
      EXPECT_EQ(ordered, dfs) << u << "->" << v;
    }
  }
}

TEST(OrderedEnumerationTest, KShortest) {
  // Fig 2: shortest transfer paths a3 → a1: t7 t4 (len 2); next come the
  // length-5 ones around a cycle.
  EdgeLabeledGraph g = Figure2Graph();
  Nfa nfa = Nfa::FromRegex(*Rx("(Transfer^z)+"), g);
  Pmr pmr =
      BuildPmrBetween(GraphSnapshot(g), nfa, *g.FindNode("a3"),
                      *g.FindNode("a1"));
  std::vector<PathBinding> top = KShortestPathBindings(pmr, 4);
  ASSERT_EQ(top.size(), 4u);
  EXPECT_EQ(top[0].path.ToString(g), "path(a3, t7, a5, t4, a1)");
  EXPECT_EQ(top[0].path.Length(), 2u);
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i].path.Length(), top[i - 1].path.Length());
  }
  std::set<PathBinding> distinct(top.begin(), top.end());
  EXPECT_EQ(distinct.size(), 4u);
}

TEST(OrderedEnumerationTest, FiniteSmallerThanK) {
  EdgeLabeledGraph g = Chain(3);
  Nfa nfa = Nfa::FromRegex(*Rx("a a"), g);
  Pmr pmr = BuildPmrBetween(GraphSnapshot(g), nfa, 0, 2);
  std::vector<PathBinding> top = KShortestPathBindings(pmr, 10);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].path.Length(), 2u);
}

}  // namespace
}  // namespace gqzoo
