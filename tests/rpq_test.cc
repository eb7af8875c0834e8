#include <gtest/gtest.h>

#include <set>

#include "src/automata/counting.h"
#include "src/automata/operations.h"
#include "src/graph/builtin_graphs.h"
#include "src/graph/generators.h"
#include "src/rpq/bag_semantics.h"
#include "src/rpq/product_graph.h"
#include "src/rpq/rpq_eval.h"
#include "tests/test_util.h"

namespace gqzoo {
namespace {

using testing_util::MatchingPathsBruteForce;
using testing_util::PairNames;
using testing_util::Rx;
using testing_util::SnapshotEvalRpq;

TEST(ProductGraphTest, SizesMatchDefinition) {
  EdgeLabeledGraph g = Figure2Graph();
  Nfa nfa = Nfa::FromRegex(*Rx("Transfer Transfer"), g);
  ProductGraph product{GraphSnapshot(g), nfa};
  EXPECT_EQ(product.num_product_nodes(), g.NumNodes() * nfa.num_states());
  // Each arc corresponds to a (graph edge, matching transition) pair.
  size_t expected = 0;
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    for (uint32_t q = 0; q < nfa.num_states(); ++q) {
      for (const Nfa::Transition& t : nfa.Out(q)) {
        if (t.pred.Matches(g.EdgeLabel(e))) ++expected;
      }
    }
  }
  EXPECT_EQ(product.NumArcs(), expected);
}

TEST(RpqEvalTest, Example12TransferStarIsComplete) {
  // Example 12: Transfer* on Figure 2 connects every pair of accounts.
  EdgeLabeledGraph g = Figure2Graph();
  auto pairs = SnapshotEvalRpq(g, *Rx("Transfer*"));
  std::set<std::pair<NodeId, NodeId>> set(pairs.begin(), pairs.end());
  std::vector<std::string> accounts = {"a1", "a2", "a3", "a4", "a5", "a6"};
  for (const std::string& u : accounts) {
    for (const std::string& v : accounts) {
      EXPECT_TRUE(set.count({*g.FindNode(u), *g.FindNode(v)}))
          << u << "->" << v;
    }
  }
  // And ε-pairs for every node (including non-accounts).
  for (NodeId n = 0; n < g.NumNodes(); ++n) {
    EXPECT_TRUE(set.count({n, n}));
  }
}

TEST(RpqEvalTest, SingleLabelIsEdgeRelation) {
  EdgeLabeledGraph g = Figure2Graph();
  auto pairs = SnapshotEvalRpq(g, *Rx("owner"));
  std::vector<std::string> names = PairNames(g, pairs);
  EXPECT_EQ(names, (std::vector<std::string>{"a1->Megan", "a3->Mike",
                                             "a5->Rebecca", "a6->Jay"}));
}

TEST(RpqEvalTest, FromAndPairQueries) {
  EdgeLabeledGraph g = Figure2Graph();
  Nfa nfa = Nfa::FromRegex(*Rx("Transfer Transfer"), g);
  NodeId a4 = *g.FindNode("a4");
  NodeId a5 = *g.FindNode("a5");
  std::vector<NodeId> from_a4 = EvalRpqFrom(GraphSnapshot(g), nfa, a4);
  // a4 -t9-> a6 -t10-> a5 and a4 -t9-> a6 -t8-> a3.
  EXPECT_EQ(from_a4.size(), 2u);
  EXPECT_TRUE(EvalRpqPair(GraphSnapshot(g), nfa, a4, a5));
  EXPECT_FALSE(EvalRpqPair(GraphSnapshot(g), nfa, a5, a4));
}

struct RandomCase {
  uint64_t seed;
  const char* regex;
};

// Prints the case by value: gtest's default dump of the raw bytes would put
// the regex pointer's address, which moves from build to build, into the
// test name.
void PrintTo(const RandomCase& c, std::ostream* os) {
  *os << "{" << c.seed << ", \"" << c.regex << "\"}";
}

class RpqRandomAgreementTest : public ::testing::TestWithParam<RandomCase> {};

// Property test: product-graph BFS evaluation agrees with two independent
// oracles: (1) the run-counting DP of counting.cc at the completeness bound
// |V|·|Q| (if any matching path exists, one of length < |V|·|Q| exists),
// and (2) explicit path enumeration at small depth (soundness of short
// witnesses).
TEST_P(RpqRandomAgreementTest, AgreesWithBruteForce) {
  EdgeLabeledGraph g = RandomGraph(7, 14, 2, GetParam().seed);
  RegexPtr r = Rx(GetParam().regex);
  Nfa nfa = Nfa::FromRegex(*r, g);
  size_t bound = g.NumNodes() * nfa.num_states() + 1;
  auto pairs = EvalRpq(GraphSnapshot(g), nfa);
  std::set<std::pair<NodeId, NodeId>> fast(pairs.begin(), pairs.end());
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      bool counted =
          !CountRunsOnPaths(GraphSnapshot(g), nfa, u, v, bound).is_zero();
      EXPECT_EQ(fast.count({u, v}) > 0, counted)
          << GetParam().regex << " " << u << "->" << v;
      // Short explicit witnesses must be reflected in the fast result.
      if (!MatchingPathsBruteForce(g, nfa, u, v, 4).empty()) {
        EXPECT_TRUE(fast.count({u, v}) > 0)
            << GetParam().regex << " " << u << "->" << v;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Random, RpqRandomAgreementTest,
    ::testing::Values(RandomCase{1, "a"}, RandomCase{2, "a b"},
                      RandomCase{3, "a*"}, RandomCase{4, "(a b)*"},
                      RandomCase{5, "(a|b)* a"}, RandomCase{6, "a+ b?"},
                      RandomCase{7, "_ _"}, RandomCase{8, "!{a}*"},
                      RandomCase{9, "(a a)*"}, RandomCase{10, "a{2,3}"}));

TEST(BagSemanticsTest, SetVsBagOnTinyClique) {
  // On K2 with a-edges: a* from u to v (u≠v): simple-path expansions.
  EdgeLabeledGraph g = Clique(2);
  RegexPtr astar = Rx("a*");
  // Node-distinct sequences u→v: just u,v: 1 way. u→u: empty expansion.
  EXPECT_EQ(BagCount(*astar, GraphSnapshot(g), 0, 1).ToString(), "1");
  EXPECT_EQ(BagCount(*astar, GraphSnapshot(g), 0, 0).ToString(), "1");
  // ((a*)*): sequences u→v with products of a*-counts.
  RegexPtr nested = Rx("(a*)*");
  // u→v: sequences (u,v): count 1·? = a*(u,v)=1 → total 1; plus none else.
  EXPECT_EQ(BagCount(*nested, GraphSnapshot(g), 0, 1).ToString(), "1");
}

TEST(BagSemanticsTest, TripleCliqueGrows) {
  EdgeLabeledGraph g = Clique(3);
  RegexPtr astar = Rx("a*");
  // Simple a-paths q0→q1 in K3: (q0,q1), (q0,q2,q1): 2.
  EXPECT_EQ(BagCount(*astar, GraphSnapshot(g), 0, 1).ToString(), "2");
  RegexPtr nested2 = Rx("((a*)*)*");
  BigUint deep = BagCount(*nested2, GraphSnapshot(g), 0, 1);
  BigUint shallow = BagCount(*Rx("(a*)*"), GraphSnapshot(g), 0, 1);
  EXPECT_TRUE(shallow > BagCount(*astar, GraphSnapshot(g), 0, 1));
  EXPECT_TRUE(deep > shallow);
}

TEST(BagSemanticsTest, UnionAndConcatCounts) {
  EdgeLabeledGraph g;
  NodeId u = g.AddNode();
  NodeId v = g.AddNode();
  NodeId w = g.AddNode();
  g.AddEdge(u, v, "a");
  g.AddEdge(u, v, "a");  // parallel
  g.AddEdge(v, w, "b");
  EXPECT_EQ(BagCount(*Rx("a"), GraphSnapshot(g), u, v).ToString(), "2");
  EXPECT_EQ(BagCount(*Rx("a|a"), GraphSnapshot(g), u, v).ToString(), "4");
  EXPECT_EQ(BagCount(*Rx("a b"), GraphSnapshot(g), u, w).ToString(), "2");
  EXPECT_EQ(BagCount(*Rx("a?"), GraphSnapshot(g), u, u).ToString(), "1");
  EXPECT_EQ(BagCount(*Rx("a?"), GraphSnapshot(g), u, v).ToString(), "2");
}

TEST(BagSemanticsTest, PaperBlowupExceedsProtonCount) {
  // Section 6.1: (((a*)*)*)* on a 6-clique yields more answers than the
  // ~10^80 protons in the observable universe.
  EdgeLabeledGraph g = Clique(6);
  BigUint total = BagCountTotal(*Rx("(((a*)*)*)*"), GraphSnapshot(g));
  EXPECT_TRUE(total > BigUint::PowerOfTen(80))
      << "only " << total.NumDecimalDigits() << " digits";
  // While set semantics (the automata route) gives exactly 36 answers.
  auto pairs = SnapshotEvalRpq(g, *Rx("(((a*)*)*)*"));
  EXPECT_EQ(pairs.size(), 36u);
}

}  // namespace
}  // namespace gqzoo
