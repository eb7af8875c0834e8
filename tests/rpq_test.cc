#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <set>

#include "src/automata/counting.h"
#include "src/automata/operations.h"
#include "src/graph/builtin_graphs.h"
#include "src/graph/generators.h"
#include "src/pmr/build.h"
#include "src/rpq/bag_semantics.h"
#include "src/rpq/rpq_eval.h"
#include "tests/test_util.h"

namespace gqzoo {
namespace {

using testing_util::MatchingPathsBruteForce;
using testing_util::PairNames;
using testing_util::Rx;
using testing_util::SnapshotEvalRpq;
using testing_util::TrimmedProductStates;

TEST(PmrBuildTest, ArcsAreExactlyTheAcceptingRunSteps) {
  // The all-endpoints PMR of Section 6.4 is the trimmed product G × N_R:
  // one node per product state on some accepting run, and one arc per
  // (graph edge, matching transition) step between two such states.
  EdgeLabeledGraph g = Figure2Graph();
  Nfa nfa = Nfa::FromRegex(*Rx("Transfer Transfer"), g);
  Pmr pmr = BuildPmr(GraphSnapshot(g), nfa, {}, {});
  const std::vector<bool> keep = TrimmedProductStates(g, nfa);
  const uint32_t states = nfa.num_states();
  std::vector<EdgeId> expected;
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    for (uint32_t q = 0; q < states; ++q) {
      for (const Nfa::Transition& t : nfa.Out(q)) {
        if (t.pred.Matches(g.EdgeLabel(e)) && keep[g.Src(e) * states + q] &&
            keep[g.Tgt(e) * states + t.to]) {
          expected.push_back(e);
        }
      }
    }
  }
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(pmr.NumNodes(),
            static_cast<size_t>(std::count(keep.begin(), keep.end(), true)));
  std::vector<EdgeId> got;
  for (uint32_t e = 0; e < pmr.NumEdges(); ++e) {
    got.push_back(pmr.GetEdge(e).gamma);
  }
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected);  // scanned edge-major, so already sorted
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

TEST(RpqEvalTest, AnchoredSearchChargesOnlyWhatItAllocates) {
  // `a a a` from the head of a 1M-node chain reaches four states. The
  // search holds a |V|·|Q|-bit visited set (0.5 MB) and a |V|-bit endpoint
  // set, and charges them and its queue as it grows, so the anchored
  // search fits a 10 MiB budget. A worst-case queue charged up front, 8
  // bytes per product state (32 MB), would trip it and return nothing.
  EdgeLabeledGraph g = Chain(1000000);
  GraphSnapshot snap(g);
  Nfa nfa = Nfa::FromRegex(*Rx("a a a"), g);
  QueryContext ctx;
  ResourceBudgets budgets;
  budgets.memory_bytes = 10u << 20;
  ctx.set_budgets(budgets);
  EXPECT_EQ(EvalRpqFrom(snap, nfa, 0, &ctx), std::vector<NodeId>{3});
  EXPECT_EQ(ctx.stop_cause(), StopCause::kNone);
  EXPECT_TRUE(EvalRpqPair(snap, nfa, 0, 3, &ctx));
  EXPECT_EQ(ctx.stop_cause(), StopCause::kNone);
}

TEST(RpqEvalTest, VisitedBitmapOverBudgetIsRefusedBeforeItIsAllocated) {
  // 16384 nodes and a 32768-state automaton: the dense visited set would
  // be 2^29 bits (64 MiB). The search charges it before allocating it, so
  // under a 1 MiB budget every plain entry point trips at once and the
  // process's peak resident size does not grow by the bitmap. (The peak
  // is a high-water mark for the whole process; the check is exact when
  // the test runs in a process of its own, as under ctest.)
  EdgeLabeledGraph g;
  for (size_t i = 0; i < 16384; ++i) g.AddNode("n" + std::to_string(i));
  LabelId j = g.InternLabel("j");
  g.AddEdge(0, 1, j);
  Nfa nfa(32768);
  nfa.AddTransition(0, {1, LabelPred::One(j), Nfa::kNoCapture, false});
  nfa.set_accepting(1, true);
  GraphSnapshot snap(g);
  ResourceBudgets budgets;
  budgets.memory_bytes = 1u << 20;
  auto peak_rss_kib = [] {
    rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss;
  };
  const long peak_before = peak_rss_kib();
  {
    QueryContext ctx;
    ctx.set_budgets(budgets);
    EXPECT_TRUE(EvalRpqFrom(snap, nfa, 0, &ctx).empty());
    EXPECT_EQ(ctx.stop_cause(), StopCause::kMemoryBudget);
  }
  {
    QueryContext ctx;
    ctx.set_budgets(budgets);
    EXPECT_FALSE(EvalRpqPair(snap, nfa, 0, 1, &ctx));
    EXPECT_EQ(ctx.stop_cause(), StopCause::kMemoryBudget);
  }
  {
    QueryContext ctx;
    ctx.set_budgets(budgets);
    EXPECT_TRUE(EvalRpq(snap, nfa, &ctx).empty());
    EXPECT_EQ(ctx.stop_cause(), StopCause::kMemoryBudget);
  }
  EXPECT_LT(peak_rss_kib() - peak_before, 16 << 10);  // KiB
  // Unbudgeted, the same search allocates the bitmap and answers.
  EXPECT_EQ(EvalRpqFrom(snap, nfa, 0), std::vector<NodeId>{1});
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
