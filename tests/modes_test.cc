// Cross-validation of the mode machinery (Section 3.1.5): the production
// implementations (PMR shortest restriction, backtracking simple/trail
// search) against the reference definition — filter the explicit set of
// matching path bindings with the reference's ApplyMode.

#include <gtest/gtest.h>

#include <set>

#include "src/crpq/modes.h"
#include "src/fuzz/reference.h"
#include "src/graph/builtin_graphs.h"
#include "src/graph/generators.h"
#include "src/util/biguint.h"
#include "tests/test_util.h"

namespace gqzoo {
namespace {

using testing_util::MatchingBindingsBruteForce;
using testing_util::Rx;

struct ModeCase {
  uint64_t seed;
  const char* regex;
};

// Prints the case by value: gtest's default dump of the raw bytes would put
// the regex pointer's address, which moves from build to build, into the
// test name.
void PrintTo(const ModeCase& c, std::ostream* os) {
  *os << "{" << c.seed << ", \"" << c.regex << "\"}";
}

class ModeAgreementTest : public ::testing::TestWithParam<ModeCase> {};

TEST_P(ModeAgreementTest, ImplementationsMatchReferenceFilter) {
  // Small graphs so the brute-force set is complete for every mode:
  //  * simple paths have < |V| = 4 edges,
  //  * trails have ≤ |E| = 6 edges,
  //  * `all` and the brute force use the same bound L = 6.
  const size_t kBound = 6;
  EdgeLabeledGraph g = RandomGraph(4, 6, 2, GetParam().seed);
  Nfa nfa = Nfa::FromRegex(*Rx(GetParam().regex), g);
  EnumerationLimits limits;
  limits.max_length = kBound;
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      std::vector<PathBinding> brute =
          MatchingBindingsBruteForce(g, nfa, u, v, kBound);
      for (PathMode mode : {PathMode::kAll, PathMode::kSimple,
                            PathMode::kTrail, PathMode::kShortest}) {
        if (mode == PathMode::kShortest && brute.empty()) {
          // A shortest witness longer than the brute-force bound may
          // exist; the reference set is incomplete here, so skip.
          continue;
        }
        std::vector<PathBinding> expected = fuzz::ApplyMode(mode, brute);
        std::sort(expected.begin(), expected.end());
        expected.erase(std::unique(expected.begin(), expected.end()),
                       expected.end());
        std::vector<PathBinding> got =
            CollectModePaths(GraphSnapshot(g), nfa, u, v, mode, limits);
        EXPECT_EQ(got, expected)
            << GetParam().regex << " mode=" << PathModeName(mode) << " " << u
            << "->" << v;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Random, ModeAgreementTest,
    ::testing::Values(ModeCase{81, "a*"}, ModeCase{82, "(a|b)*"},
                      ModeCase{83, "a (b|a)*"}, ModeCase{84, "(a^z)*"},
                      ModeCase{85, "(a^z b)* a?"}, ModeCase{86, "_+"},
                      ModeCase{87, "(a b^z|b a^z)*"},
                      ModeCase{88, "a{1,3}"}));

std::vector<std::string> PathStrings(const EdgeLabeledGraph& g,
                                     const std::vector<PathBinding>& r) {
  std::vector<std::string> out;
  for (const PathBinding& pb : r) out.push_back(pb.path.ToString(g));
  return out;
}

TEST(TruncatedModePathsTest, TrailAndSimpleKeepTheirVisitOrderPrefix) {
  // A `max_results` cut keeps the first paths the search visits
  // (transition order, then each label slice's edge order), not the
  // smallest ones: these prefixes are part of the output contract.
  PropertyGraph g = Figure3Graph();
  GraphSnapshot snap(g);
  Nfa nfa = Nfa::FromRegex(*Rx("Transfer+"), g.skeleton());
  EnumerationLimits limits;
  limits.max_results = 3;
  EnumerationStats stats;
  std::vector<PathBinding> trails =
      CollectModePaths(snap, nfa, *g.FindNode("a3"), *g.FindNode("a4"),
                       PathMode::kTrail, limits, &stats);
  EXPECT_TRUE(stats.truncated);
  EXPECT_EQ(PathStrings(g.skeleton(), trails),
            (std::vector<std::string>{
                "path(a3, t2, a2, t3, a4)",
                "path(a3, t2, a2, t3, a4, t9, a6, t8, a3, t6, a4)",
                "path(a3, t2, a2, t3, a4, t9, a6, t8, a3, t7, a5, t4, a1, t1, "
                "a3, t6, a4)"}));
  std::vector<PathBinding> simple =
      CollectModePaths(snap, nfa, *g.FindNode("a6"), *g.FindNode("a4"),
                       PathMode::kSimple, limits, &stats);
  EXPECT_TRUE(stats.truncated);
  EXPECT_EQ(PathStrings(g.skeleton(), simple),
            (std::vector<std::string>{"path(a6, t8, a3, t2, a2, t3, a4)",
                                      "path(a6, t8, a3, t5, a2, t3, a4)",
                                      "path(a6, t8, a3, t6, a4)"}));
}

TEST(ApplyModeTest, ShortestKeepsAllMinimal) {
  EdgeLabeledGraph g = ParallelChain(2);  // 4 shortest paths of length 2
  Nfa nfa = Nfa::FromRegex(*Rx("a*"), g);
  std::vector<PathBinding> all =
      MatchingBindingsBruteForce(g, nfa, 0, 2, 4);
  std::vector<PathBinding> shortest =
      fuzz::ApplyMode(PathMode::kShortest, all);
  EXPECT_EQ(shortest.size(), 4u);
  for (const PathBinding& pb : shortest) {
    EXPECT_EQ(pb.path.Length(), 2u);
  }
}

TEST(ApplyModeTest, EmptySetsStayEmpty) {
  for (PathMode mode : {PathMode::kAll, PathMode::kSimple, PathMode::kTrail,
                        PathMode::kShortest}) {
    EXPECT_TRUE(fuzz::ApplyMode(mode, {}).empty());
  }
}

TEST(ModeCountTest, TrailCountOnParallelChain) {
  // Every s→t path in ParallelChain is a trail and simple; the counts are
  // exactly 2^n for all of all/trail/simple, while shortest also keeps all
  // of them (equal lengths). A strong consistency check among modes.
  const size_t n = 6;
  EdgeLabeledGraph g = ParallelChain(n);
  Nfa nfa = Nfa::FromRegex(*Rx("a*"), g);
  EnumerationLimits limits;
  for (PathMode mode : {PathMode::kAll, PathMode::kSimple, PathMode::kTrail,
                        PathMode::kShortest}) {
    std::vector<PathBinding> got =
        CollectModePaths(GraphSnapshot(g), nfa, *g.FindNode("s"),
                         *g.FindNode("t"), mode, limits);
    EXPECT_EQ(got.size(), size_t{1} << n) << PathModeName(mode);
  }
}

TEST(ModeCountTest, CycleDistinguishesModes) {
  // On a 3-cycle from c0 to c0: `all` is infinite (truncates), shortest is
  // the empty path, simple is the empty path only, trail adds the full
  // 3-cycle.
  EdgeLabeledGraph g = Cycle(3);
  Nfa nfa = Nfa::FromRegex(*Rx("a*"), g);
  EnumerationLimits limits;
  limits.max_results = 10;
  limits.max_length = 30;

  EnumerationStats stats;
  std::vector<PathBinding> all =
      CollectModePaths(GraphSnapshot(g), nfa, 0, 0, PathMode::kAll, limits,
                       &stats);
  EXPECT_TRUE(stats.truncated);
  EXPECT_EQ(all.size(), 10u);

  std::vector<PathBinding> shortest =
      CollectModePaths(GraphSnapshot(g), nfa, 0, 0, PathMode::kShortest,
                       limits);
  ASSERT_EQ(shortest.size(), 1u);
  EXPECT_EQ(shortest[0].path.Length(), 0u);

  std::vector<PathBinding> simple =
      CollectModePaths(GraphSnapshot(g), nfa, 0, 0, PathMode::kSimple, limits);
  ASSERT_EQ(simple.size(), 1u);
  EXPECT_EQ(simple[0].path.Length(), 0u);

  std::vector<PathBinding> trail =
      CollectModePaths(GraphSnapshot(g), nfa, 0, 0, PathMode::kTrail, limits);
  ASSERT_EQ(trail.size(), 2u);  // empty path + the 3-cycle
  EXPECT_EQ(trail[1].path.Length(), 3u);
}

}  // namespace
}  // namespace gqzoo
