// Tests for the Section 7.1 pushdown optimizer: rewrites are
// answer-preserving and actually fire.

#include <gtest/gtest.h>

#include "src/coregql/optimize.h"
#include "src/graph/builtin_graphs.h"
#include "src/graph/generators.h"
#include "tests/test_util.h"

namespace gqzoo {
namespace {

using testing_util::SnapshotEvalCoreGqlQuery;

CoreGqlQuery Q(const std::string& text) {
  return ParseCoreGqlQuery(text).ValueOrDie();
}

// Evaluates original and optimized and checks both rewrite activity and
// answer equality.
void CheckPreserves(const PropertyGraph& g, const std::string& text,
                    size_t expect_labels, size_t expect_selections) {
  CoreGqlQuery original = Q(text);
  PushdownStats stats;
  CoreGqlQuery optimized = PushDownConditions(original, &stats);
  EXPECT_EQ(stats.labels_pushed, expect_labels) << text;
  EXPECT_EQ(stats.selections_pushed, expect_selections) << text;
  Result<CoreQueryResult> before = SnapshotEvalCoreGqlQuery(g, original);
  Result<CoreQueryResult> after = SnapshotEvalCoreGqlQuery(g, optimized);
  ASSERT_TRUE(before.ok()) << before.error().message();
  ASSERT_TRUE(after.ok()) << after.error().message();
  EXPECT_EQ(before.value().relation.rows(), after.value().relation.rows())
      << text;
}

TEST(PushdownTest, LabelPushdownFires) {
  PropertyGraph g = Figure3Graph();
  CoreGqlQuery q = Q("MATCH (x)-[e]->(y) WHERE x:Account RETURN x, y");
  PushdownStats stats;
  CoreGqlQuery optimized = PushDownConditions(q, &stats);
  EXPECT_EQ(stats.labels_pushed, 1u);
  EXPECT_EQ(optimized.blocks[0].where, nullptr);
  // The atom now carries the label.
  EXPECT_NE(optimized.blocks[0].patterns[0].pattern->ToString().find(
                "x:Account"),
            std::string::npos);
}

TEST(PushdownTest, PreservesAnswers) {
  PropertyGraph g = Figure3Graph();
  CheckPreserves(g, "MATCH (x)-[e]->(y) WHERE x:Account RETURN x, y", 1, 0);
  CheckPreserves(g,
                 "MATCH (x)-[e:Transfer]->(y) WHERE e.amount < 5000000 "
                 "RETURN x, y",
                 0, 1);
  CheckPreserves(g,
                 "MATCH (x)->(y), (y)->(w) "
                 "WHERE x:Account AND y.owner = 'Dave' RETURN x, w",
                 1, 1);
  // Mixed with a non-pushable conjunct (two-variable comparison).
  CheckPreserves(g,
                 "MATCH (x)-[e]->(y) WHERE x:Account AND "
                 "x.owner != y.owner AND e.amount > 1 RETURN x, y",
                 1, 1);
}

TEST(PushdownTest, ContradictoryLabelIsKeptNotMiscompiled) {
  PropertyGraph g = Figure3Graph();
  // x already labeled Account; WHERE claims a different label: the result
  // must stay empty (conjunct kept, not overwritten).
  CoreGqlQuery q =
      Q("MATCH (x:Account)->(y) WHERE x:Ghost RETURN x, y");
  PushdownStats stats;
  CoreGqlQuery optimized = PushDownConditions(q, &stats);
  EXPECT_EQ(stats.labels_pushed, 0u);
  Result<CoreQueryResult> r = SnapshotEvalCoreGqlQuery(g, optimized);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().relation.NumRows(), 0u);
}

TEST(PushdownTest, RepeatedVariablesAreNotTouched) {
  // u under a repetition is a different (erased) variable; the WHERE
  // conjunct over it must not be pushed into the starred atoms.
  PropertyGraph g = Figure3Graph();
  CoreGqlQuery q = Q("MATCH (x) ( (u)->(v) )* (y) WHERE u:Account RETURN x");
  PushdownStats stats;
  CoreGqlQuery optimized = PushDownConditions(q, &stats);
  EXPECT_EQ(stats.labels_pushed, 0u);
  // u is unbound at the top level, so the block is empty either way.
  Result<CoreQueryResult> before = SnapshotEvalCoreGqlQuery(g, q);
  Result<CoreQueryResult> after = SnapshotEvalCoreGqlQuery(g, optimized);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(before.value().relation.NumRows(), 0u);
  EXPECT_EQ(after.value().relation.NumRows(), 0u);
}

TEST(PushdownTest, RandomizedEquivalence) {
  for (uint64_t seed : {91, 92, 93}) {
    PropertyGraph g = RandomPropertyGraph(20, 60, 4, seed);
    for (const char* text :
         {"MATCH (x)-[e]->(y) WHERE x:N AND e.k < 3 RETURN x, y",
          "MATCH (x)->(y) WHERE x.k = 1 RETURN y",
          "MATCH (x)->(y), (y)->(w) WHERE y.k >= 2 AND x:N RETURN x, w",
          "MATCH (x) ->* (y) WHERE x.k = 0 RETURN x, y"}) {
      CoreGqlQuery original = Q(text);
      CoreGqlQuery optimized = PushDownConditions(original);
      Result<CoreQueryResult> before = SnapshotEvalCoreGqlQuery(g, original);
      Result<CoreQueryResult> after = SnapshotEvalCoreGqlQuery(g, optimized);
      ASSERT_TRUE(before.ok());
      ASSERT_TRUE(after.ok());
      EXPECT_EQ(before.value().relation.rows(),
                after.value().relation.rows())
          << text << " seed " << seed;
    }
  }
}

}  // namespace
}  // namespace gqzoo
