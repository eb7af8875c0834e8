#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/graph/builtin_graphs.h"
#include "src/graph/generators.h"
#include "src/nested/regular_queries.h"

namespace gqzoo {
namespace {

RegularQuery RQ(const std::string& text) {
  Result<RegularQuery> q = ParseRegularQuery(text);
  if (!q.ok()) {
    ADD_FAILURE() << text << ": " << q.error().message();
    return RegularQuery{};
  }
  return q.value();
}

std::set<std::string> PairRows(const EdgeLabeledGraph& g,
                               const CrpqResult& r) {
  std::set<std::string> out;
  for (const auto& row : r.rows) {
    out.insert(std::string(g.NodeName(std::get<NodeId>(row[0]))) + "->" +
               std::string(g.NodeName(std::get<NodeId>(row[1]))));
  }
  return out;
}

TEST(RegularQueryParserTest, RulesAndMain) {
  RegularQuery q = RQ(
      "twoWay(x, y) := Transfer(x, y), Transfer(y, x) ;"
      "q(u, v) := twoWay*(u, v)");
  EXPECT_EQ(q.rules.size(), 1u);
  EXPECT_EQ(q.rules[0].name, "twoWay");
  EXPECT_EQ(q.main.name, "q");
}

TEST(RegularQueryParserTest, RejectsRecursionAndForwardRefs) {
  // Self-reference.
  EXPECT_FALSE(ParseRegularQuery("r(x, y) := r(x, z), a(z, y); q(u,v) := "
                                 "r(u, v)")
                   .ok());
  // Forward reference.
  EXPECT_FALSE(ParseRegularQuery(
                   "r1(x, y) := r2(x, y); r2(x, y) := a(x, y); "
                   "q(u, v) := r1(u, v)")
                   .ok());
  // Non-binary rule.
  EXPECT_FALSE(ParseRegularQuery("r(x, y, z) := a(x, y), a(y, z); "
                                 "q(u, v) := r2(u, v)")
                   .ok());
  EXPECT_FALSE(ParseRegularQuery("   ").ok());
}

TEST(RegularQueryEvalTest, Example15TwoWayClosure) {
  // Examples 14-15: pairs connected by a path of two-way-transfer virtual
  // edges. On TwoWayTransferChain the hubs are mutually reachable through
  // the virtual edges, while plain Transfer* also reaches the decoys.
  EdgeLabeledGraph g = TwoWayTransferChain(3);  // hubs h0..h3 + decoys
  RegularQuery q = RQ(
      "twoWay(x, y) := Transfer(x, y), Transfer(y, x) ;"
      "q(u, v) := twoWay*(u, v)");
  Result<CrpqResult> r = EvalRegularQuery(g, q);
  ASSERT_TRUE(r.ok()) << r.error().message();
  std::set<std::string> rows = PairRows(g, r.value());
  // All hub pairs are in (both directions).
  for (int i = 0; i <= 3; ++i) {
    for (int j = 0; j <= 3; ++j) {
      EXPECT_TRUE(rows.count("h" + std::to_string(i) + "->h" +
                             std::to_string(j)))
          << i << "," << j;
    }
  }
  // Decoys appear only as trivial (d, d) pairs — no two-way edge to them.
  EXPECT_FALSE(rows.count("h0->d0"));
  EXPECT_TRUE(rows.count("d0->d0"));  // ε-pair of the Kleene star

  // Flat reachability over-approximates: Transfer* reaches the decoys.
  RegularQuery flat = RQ("q(u, v) := Transfer*(u, v)");
  Result<CrpqResult> rf = EvalRegularQuery(g, flat);
  ASSERT_TRUE(rf.ok());
  EXPECT_TRUE(PairRows(g, rf.value()).count("h0->d0"));
}

TEST(RegularQueryEvalTest, ChainedRules) {
  // A rule using a rule: cheap = two-way; rich = cheap o cheap.
  EdgeLabeledGraph g = TwoWayTransferChain(4);
  RegularQuery q = RQ(
      "twoWay(x, y) := Transfer(x, y), Transfer(y, x) ;"
      "twoHop(x, y) := (twoWay twoWay)(x, y) ;"
      "q(u, v) := twoHop+(u, v)");
  Result<CrpqResult> r = EvalRegularQuery(g, q);
  ASSERT_TRUE(r.ok()) << r.error().message();
  std::set<std::string> rows = PairRows(g, r.value());
  // twoHop moves 2 steps (in either direction) along the hub chain; its
  // transitive closure links hubs at even distance... but since steps can
  // backtrack (h0→h1→h0), even-length round trips land anywhere of the
  // same parity.
  EXPECT_TRUE(rows.count("h0->h2"));
  EXPECT_TRUE(rows.count("h0->h4"));
  EXPECT_TRUE(rows.count("h0->h0"));
  EXPECT_FALSE(rows.count("h0->h1"));  // odd distance unreachable by 2-hops
}

TEST(RegularQueryEvalTest, RuleLabelAbsentFromBaseFeedsLaterRule) {
  // n0 -a-> n1 -b-> n2 -a-> n3 -b-> n4. Neither `ab` nor `abab` is a label
  // of the base graph: each exists only in the snapshot built for the
  // rounds after the rule that defines it, and the wildcard rule sees
  // `ab` as its only non-a/b label slice.
  EdgeLabeledGraph g;
  std::vector<NodeId> n;
  for (int i = 0; i < 5; ++i) n.push_back(g.AddNode("n" + std::to_string(i)));
  LabelId a = g.InternLabel("a");
  LabelId b = g.InternLabel("b");
  for (int i = 0; i < 4; ++i) g.AddEdge(n[i], n[i + 1], i % 2 == 0 ? a : b);
  ASSERT_FALSE(g.FindLabel("ab").has_value());
  RegularQuery q = RQ(
      "ab(x, y) := (a b)(x, y) ;"
      "abab(x, y) := (ab ab)(x, y) ;"
      "other(x, y) := (!{a, b, abab} !{a, b, abab})(x, y) ;"
      "q(u, v) := abab(u, v), other(u, v)");
  Result<CrpqResult> r = EvalRegularQuery(g, q);
  ASSERT_TRUE(r.ok()) << r.error().message();
  EXPECT_EQ(PairRows(g, r.value()), (std::set<std::string>{"n0->n4"}));
  EXPECT_FALSE(g.FindLabel("ab").has_value());  // input untouched
}

TEST(RegularQueryEvalTest, VirtualEdgesDoNotLeakIntoInput) {
  EdgeLabeledGraph g = TwoWayTransferChain(2);
  size_t edges_before = g.NumEdges();
  RegularQuery q = RQ(
      "twoWay(x, y) := Transfer(x, y), Transfer(y, x) ;"
      "q(u, v) := twoWay(u, v)");
  Result<CrpqResult> r = EvalRegularQuery(g, q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(g.NumEdges(), edges_before);  // input untouched
  EXPECT_FALSE(r.value().rows.empty());
}

TEST(RegularQueryEvalTest, MainCanMixBaseAndVirtualLabels) {
  EdgeLabeledGraph g = TwoWayTransferChain(3);
  RegularQuery q = RQ(
      "twoWay(x, y) := Transfer(x, y), Transfer(y, x) ;"
      "q(u, v) := (twoWay* Transfer)(u, v)");
  Result<CrpqResult> r = EvalRegularQuery(g, q);
  ASSERT_TRUE(r.ok()) << r.error().message();
  // From h0: any hub, then one Transfer (to a neighbor hub or a decoy).
  std::set<std::string> rows = PairRows(g, r.value());
  EXPECT_TRUE(rows.count("h0->d3"));
  EXPECT_TRUE(rows.count("h0->h1"));
}

}  // namespace
}  // namespace gqzoo
