#include <gtest/gtest.h>

#include <set>

#include "src/automata/operations.h"
#include "src/graph/builtin_graphs.h"
#include "src/graph/generators.h"
#include "src/pmr/build.h"
#include "src/pmr/enumerate.h"
#include "tests/test_util.h"

namespace gqzoo {
namespace {

using testing_util::MatchingBindingsBruteForce;
using testing_util::MatchingPathsBruteForce;
using testing_util::Rx;

TEST(PmrTest, HomomorphismEnforcedAndSPathsBasics) {
  EdgeLabeledGraph g = Chain(2);  // u1 -e0-> u2 -e1-> u3
  Pmr pmr(g);
  uint32_t n0 = pmr.AddNode(0);
  uint32_t n1 = pmr.AddNode(1);
  uint32_t n2 = pmr.AddNode(2);
  pmr.AddEdge(n0, n1, 0);
  pmr.AddEdge(n1, n2, 1);
  pmr.AddSource(n0);
  pmr.AddTarget(n2);
  std::vector<PathBinding> paths =
      CollectPathBindings(pmr, EnumerationLimits{});
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].path.ToString(g), "path(u1, e0, u2, e1, u3)");
  EXPECT_FALSE(pmr.RepresentsInfinitelyManyPaths());
  EXPECT_EQ(CountPmrWalks(pmr)->ToString(), "1");
}

TEST(PmrTest, PaperExampleCycleRepresentation) {
  // Section 6.4: the infinitely many Transfer-cycles from Mike (a3) to Mike
  // looping through t7, t4, t1 are represented by a 3-node cyclic PMR.
  EdgeLabeledGraph g = Figure2Graph();
  NodeId a3 = *g.FindNode("a3");
  NodeId a5 = *g.FindNode("a5");
  NodeId a1 = *g.FindNode("a1");
  EdgeId t7 = *g.FindEdge("t7");
  EdgeId t4 = *g.FindEdge("t4");
  EdgeId t1 = *g.FindEdge("t1");
  Pmr pmr(g);
  uint32_t r1 = pmr.AddNode(a3);
  uint32_t r2 = pmr.AddNode(a5);
  uint32_t r3 = pmr.AddNode(a1);
  pmr.AddEdge(r1, r2, t7);
  pmr.AddEdge(r2, r3, t4);
  pmr.AddEdge(r3, r1, t1);
  pmr.AddSource(r1);
  pmr.AddTarget(r1);
  EXPECT_TRUE(pmr.RepresentsInfinitelyManyPaths());
  EXPECT_EQ(CountPmrWalks(pmr), std::nullopt);
  // Finite prefix of the infinite set: the empty cycle, one loop, two loops.
  EnumerationLimits limits;
  limits.max_results = 3;
  EnumerationStats stats;
  std::vector<PathBinding> some = CollectPathBindings(pmr, limits, &stats);
  ASSERT_EQ(some.size(), 3u);
  EXPECT_TRUE(stats.truncated);
  EXPECT_EQ(some[0].path.Length(), 0u);
  EXPECT_EQ(some[1].path.Length(), 3u);
  EXPECT_EQ(some[2].path.Length(), 6u);
}

TEST(PmrTest, Figure5ParallelChainIsLinearSizeForExponentialPaths) {
  // E3: 2^n paths, O(n)-size PMR.
  const size_t n = 12;
  EdgeLabeledGraph g = ParallelChain(n);
  Nfa nfa = Nfa::FromRegex(*Rx("a*"), g);
  Pmr pmr =
      BuildPmrBetween(GraphSnapshot(g), nfa, *g.FindNode("s"),
                      *g.FindNode("t"));
  EXPECT_EQ(CountPmrWalks(pmr)->ToString(),
            std::to_string(uint64_t{1} << n));
  EXPECT_LE(pmr.NumNodes(), (n + 1) * nfa.num_states());
  EXPECT_LE(pmr.NumEdges(), 2 * n * nfa.num_states() * nfa.num_states());
}

struct PmrCase {
  uint64_t seed;
  const char* regex;
};

// Prints the case by value: gtest's default dump of the raw bytes would put
// the regex pointer's address, which moves from build to build, into the
// test name.
void PrintTo(const PmrCase& c, std::ostream* os) {
  *os << "{" << c.seed << ", \"" << c.regex << "\"}";
}

class PmrAgreementTest : public ::testing::TestWithParam<PmrCase> {};

// Property: SPaths of the PMR built for (u, v) equals the set of matching
// paths (brute force), up to the length bound.
TEST_P(PmrAgreementTest, SPathsMatchBruteForce) {
  EdgeLabeledGraph g = RandomGraph(6, 10, 2, GetParam().seed);
  RegexPtr r = Rx(GetParam().regex);
  Nfa nfa = Nfa::FromRegex(*r, g);
  const size_t max_len = 5;
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      Pmr pmr = BuildPmrBetween(GraphSnapshot(g), nfa, u, v);
      EnumerationLimits limits;
      limits.max_length = max_len;
      std::vector<PathBinding> got = CollectPathBindings(pmr, limits);
      std::set<Path> got_paths;
      for (const PathBinding& pb : got) got_paths.insert(pb.path);
      std::vector<Path> expected = MatchingPathsBruteForce(g, nfa, u, v,
                                                           max_len);
      std::set<Path> expected_set(expected.begin(), expected.end());
      EXPECT_EQ(got_paths, expected_set)
          << GetParam().regex << " " << u << "->" << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Random, PmrAgreementTest,
    ::testing::Values(PmrCase{11, "a*"}, PmrCase{12, "(a b)*"},
                      PmrCase{13, "a (a|b)*"}, PmrCase{14, "a{2,3}"},
                      PmrCase{15, "_ _ _"}, PmrCase{16, "(a|b b)*"}));

class LrpqBindingTest : public ::testing::TestWithParam<PmrCase> {};

// Property: enumerated (path, µ) sets agree with the brute-force l-RPQ
// semantics (all runs over all bounded paths).
TEST_P(LrpqBindingTest, BindingsMatchBruteForce) {
  EdgeLabeledGraph g = RandomGraph(5, 9, 2, GetParam().seed);
  RegexPtr r = Rx(GetParam().regex);
  Nfa nfa = Nfa::FromRegex(*r, g);
  const size_t max_len = 4;
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      Pmr pmr = BuildPmrBetween(GraphSnapshot(g), nfa, u, v);
      EnumerationLimits limits;
      limits.max_length = max_len;
      std::vector<PathBinding> got = CollectPathBindings(pmr, limits);
      std::vector<PathBinding> expected =
          MatchingBindingsBruteForce(g, nfa, u, v, max_len);
      EXPECT_EQ(got, expected) << GetParam().regex << " " << u << "->" << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Random, LrpqBindingTest,
    ::testing::Values(PmrCase{21, "(a^z)*"}, PmrCase{22, "a^z (b^w)*"},
                      PmrCase{23, "(a^z|b^z)*"},
                      PmrCase{24, "(a a^z|a^z a)*"},
                      PmrCase{25, "_^z _^z"}));

// Section 3.1.4: [[R]]² = [[R·R]] by definition for l-RPQs — the fix for
// the Example 1 anomaly. We verify [[R{2}]] = [[R R]] on random graphs,
// including the bindings.
TEST(LrpqSemanticTest, RepetitionEqualsConcatenation) {
  for (uint64_t seed : {31, 32, 33}) {
    EdgeLabeledGraph g = RandomGraph(5, 10, 2, seed);
    Nfa rep = Nfa::FromRegex(*Rx("(a^z b){2}"), g);
    Nfa cat = Nfa::FromRegex(*Rx("(a^z b) (a^z b)"), g);
    const size_t max_len = 4;
    for (NodeId u = 0; u < g.NumNodes(); ++u) {
      for (NodeId v = 0; v < g.NumNodes(); ++v) {
        EXPECT_EQ(MatchingBindingsBruteForce(g, rep, u, v, max_len),
                  MatchingBindingsBruteForce(g, cat, u, v, max_len))
            << seed << ": " << u << "->" << v;
      }
    }
  }
}

TEST(PmrTest, ShortestRestrictionKeepsOnlyGeodesics) {
  // Figure 2: shortest Transfer-paths a3 → a1 have length 2 (t7 t4).
  EdgeLabeledGraph g = Figure2Graph();
  Nfa nfa = Nfa::FromRegex(*Rx("(Transfer^z)+"), g);
  Pmr pmr =
      BuildPmrBetween(GraphSnapshot(g), nfa, *g.FindNode("a3"),
                      *g.FindNode("a1"))
                .ShortestRestriction();
  std::vector<PathBinding> paths =
      CollectPathBindings(pmr, EnumerationLimits{});
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].path.ToString(g), "path(a3, t7, a5, t4, a1)");
  EXPECT_EQ(ListToString(g, paths[0].mu.Get("z")), "list(t7, t4)");
}

TEST(PmrTest, EmptyWhenNoPath) {
  EdgeLabeledGraph g = Chain(2);
  Nfa nfa = Nfa::FromRegex(*Rx("b"), g);
  Pmr pmr = BuildPmrBetween(GraphSnapshot(g), nfa, 0, 2);
  EXPECT_EQ(pmr.NumNodes(), 0u);
  EXPECT_TRUE(CollectPathBindings(pmr, EnumerationLimits{}).empty());
  EXPECT_EQ(CountPmrWalks(pmr)->ToString(), "0");
}

TEST(PmrTest, EpsilonSelfPath) {
  EdgeLabeledGraph g = Chain(1);
  Nfa nfa = Nfa::FromRegex(*Rx("a*"), g);
  Pmr pmr = BuildPmrBetween(GraphSnapshot(g), nfa, 0, 0);
  std::vector<PathBinding> paths =
      CollectPathBindings(pmr, EnumerationLimits{});
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].path.Length(), 0u);
}

}  // namespace
}  // namespace gqzoo
