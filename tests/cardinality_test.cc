#include <gtest/gtest.h>

#include "src/graph/generators.h"
#include "src/planner/cardinality.h"
#include "src/rpq/rpq_eval.h"
#include "tests/test_util.h"

namespace gqzoo {
namespace {

using testing_util::Rx;

TEST(SnapshotStatsSynopsisTest, CountsPerLabel) {
  EdgeLabeledGraph g;
  NodeId a = g.AddNode();
  NodeId b = g.AddNode();
  NodeId c = g.AddNode();
  g.AddEdge(a, b, "x");
  g.AddEdge(a, c, "x");
  g.AddEdge(b, c, "y");
  SnapshotStats stats{GraphSnapshot(g)};
  LabelId x = *g.FindLabel("x");
  LabelId y = *g.FindLabel("y");
  EXPECT_EQ(stats.EdgeCount(x), 2u);
  EXPECT_EQ(stats.EdgeCount(y), 1u);
  EXPECT_EQ(stats.DistinctSources(x), 1u);
  EXPECT_EQ(stats.DistinctTargets(x), 2u);
  EXPECT_DOUBLE_EQ(static_cast<double>(stats.EdgeCount(x)) / stats.num_nodes(),
                   2.0 / 3.0);
  EXPECT_DOUBLE_EQ(stats.EdgesMatching(LabelPred::Any()), 3.0);
  EXPECT_DOUBLE_EQ(stats.EdgesMatching(LabelPred::NegSet({x})), 1.0);
  EXPECT_DOUBLE_EQ(stats.EdgesMatching(LabelPred::None()), 0.0);
}

TEST(SynopsisEstimateTest, ExactOnSingleLabelChainEdges) {
  // On a chain, `a` has exactly n answers; the synopsis predicts
  // n · (n/(n+1)) ≈ n.
  EdgeLabeledGraph g = Chain(9);  // 10 nodes, 9 edges
  SnapshotStats stats{GraphSnapshot(g)};
  Nfa nfa = Nfa::FromRegex(*Rx("a"), g);
  double estimate = EstimateRpqCardinalitySynopsis(stats, nfa);
  double exact = static_cast<double>(EvalRpq(GraphSnapshot(g), nfa).size());
  EXPECT_NEAR(estimate, exact, exact * 0.2);
}

TEST(SynopsisEstimateTest, SaturatesOnStar) {
  // Transfer* on a clique saturates to n² — the estimate must not exceed
  // n² and should be close to it.
  EdgeLabeledGraph g = Clique(6);
  SnapshotStats stats{GraphSnapshot(g)};
  Nfa nfa = Nfa::FromRegex(*Rx("a*"), g);
  double estimate = EstimateRpqCardinalitySynopsis(stats, nfa);
  EXPECT_LE(estimate, 36.0 + 1e-9);
  EXPECT_GE(estimate, 30.0);
  EXPECT_EQ(EvalRpq(GraphSnapshot(g), nfa).size(), 36u);
}

TEST(SynopsisEstimateTest, EmptyForAbsentLabels) {
  EdgeLabeledGraph g = Chain(5);
  SnapshotStats stats{GraphSnapshot(g)};
  Nfa nfa = Nfa::FromRegex(*Rx("zzz"), g);
  EXPECT_DOUBLE_EQ(EstimateRpqCardinalitySynopsis(stats, nfa), 0.0);
}

TEST(SamplingEstimateTest, ExactWhenSamplingEveryNode) {
  // With sample_size ≫ n the estimator converges to the exact count (it
  // samples uniformly with replacement; on a vertex-transitive graph any
  // single sample is already exact).
  EdgeLabeledGraph g = Cycle(8);
  Nfa nfa = Nfa::FromRegex(*Rx("a a"), g);
  double estimate =
      EstimateRpqCardinalitySampling(GraphSnapshot(g), nfa, 1, 42);
  EXPECT_DOUBLE_EQ(estimate, 8.0);  // each node reaches exactly one node
  EXPECT_EQ(EvalRpq(GraphSnapshot(g), nfa).size(), 8u);
}

TEST(SamplingEstimateTest, ReasonableOnRandomGraphs) {
  EdgeLabeledGraph g = RandomGraph(64, 192, 2, 7);
  Nfa nfa = Nfa::FromRegex(*Rx("a b"), g);
  double exact = static_cast<double>(EvalRpq(GraphSnapshot(g), nfa).size());
  double estimate =
      EstimateRpqCardinalitySampling(GraphSnapshot(g), nfa, 64, 11);
  if (exact > 0) {
    EXPECT_GT(estimate, exact * 0.3);
    EXPECT_LT(estimate, exact * 3.0);
  }
}

TEST(SynopsisEstimateTest, WithinOrderOfMagnitudeOnRandomGraphs) {
  for (uint64_t seed : {21, 22, 23}) {
    EdgeLabeledGraph g = RandomGraph(48, 144, 2, seed);
    SnapshotStats stats{GraphSnapshot(g)};
    for (const char* regex : {"a", "a b", "a|b", "a b a"}) {
      Nfa nfa = Nfa::FromRegex(*Rx(regex), g);
      double exact = static_cast<double>(EvalRpq(GraphSnapshot(g), nfa).size());
      double estimate = EstimateRpqCardinalitySynopsis(stats, nfa);
      if (exact > 10) {
        EXPECT_GT(estimate, exact / 10.0) << regex << " seed " << seed;
        EXPECT_LT(estimate, exact * 10.0) << regex << " seed " << seed;
      }
    }
  }
}

}  // namespace
}  // namespace gqzoo
