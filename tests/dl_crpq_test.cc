// dl-CRPQ (Section 3.2.2) coverage: modes × data tests × joins, constants,
// and round trips of the dl-dialect rule syntax.

#include <gtest/gtest.h>

#include <set>

#include "src/crpq/crpq_parser.h"
#include "src/datatest/dl_eval.h"
#include "src/graph/builtin_graphs.h"
#include "src/graph/generators.h"
#include "tests/test_util.h"

namespace gqzoo {
namespace {

using testing_util::SnapshotEvalDlCrpq;

Crpq DlQ(const std::string& text) {
  Result<Crpq> q = ParseCrpq(text, RegexDialect::kDl);
  if (!q.ok()) {
    ADD_FAILURE() << text << ": " << q.error().message();
    return Crpq{};
  }
  return q.value();
}

std::set<std::string> Rows(const PropertyGraph& g, const CrpqResult& r) {
  std::set<std::string> out;
  for (const auto& row : r.rows) {
    std::string s;
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) s += ",";
      s += CrpqValueToString(g.skeleton(), row[i]);
    }
    out.insert(s);
  }
  return out;
}

TEST(DlCrpqParserTest, DlDialectRules) {
  Crpq q = DlQ("q(x, z) := shortest ( ()[Transfer^z] )+ () (x, @a5), "
               "( ()[Transfer][amount > 5000000] )+ () (x, y)");
  EXPECT_EQ(q.atoms.size(), 2u);
  EXPECT_EQ(q.atoms[0].mode, PathMode::kShortest);
  EXPECT_TRUE(q.atoms[0].to.is_constant);
  EXPECT_EQ(q.ListVariables(), (std::vector<std::string>{"z"}));
  // Round trip through ToString.
  Result<Crpq> again = ParseCrpq(q.ToString(), RegexDialect::kDl);
  ASSERT_TRUE(again.ok()) << q.ToString() << ": " << again.error().message();
  EXPECT_EQ(again.value().atoms.size(), 2u);
}

TEST(DlCrpqEvalTest, TrailModeWithDataTests) {
  // Trail transfer cycles at Mike's account whose first hop is expensive.
  PropertyGraph g = Figure3Graph();
  Crpq q = DlQ("q(z) := trail ()[Transfer^z][amount >= 6000000]"
               "( ()[Transfer^z] )+ () (@a3, @a3)");
  Result<CrpqResult> r = SnapshotEvalDlCrpq(g, q);
  ASSERT_TRUE(r.ok()) << r.error().message();
  // Cycles at a3: t7,t4,t1 (first hop t7 = 10M ✓) and t6,t9,t8 (t6 = 4.5M ✗)
  // and t2/t5 → a2 → a4 → a6 → a3 (t2 = 6M ✓, t5 = 9.1M ✓).
  std::set<std::string> rows = Rows(g, r.value());
  EXPECT_TRUE(rows.count("list(t7, t4, t1)")) << r.value().ToString(g.skeleton());
  EXPECT_TRUE(rows.count("list(t2, t3, t9, t8)"));
  EXPECT_TRUE(rows.count("list(t5, t3, t9, t8)"));
  EXPECT_FALSE(rows.count("list(t6, t9, t8)"));  // first hop too cheap
}

TEST(DlCrpqEvalTest, SimpleModeExcludesRevisits) {
  // The two-cheap-transfers query has no simple witness (t9 must repeat).
  PropertyGraph g = Figure3Graph();
  const std::string cheap = "()[Transfer^z][amount < 4500000]";
  Crpq q = DlQ("q(z) := simple ( ()[Transfer^z] )* " + cheap +
               " ( ()[Transfer^z] )* " + cheap +
               " ( ()[Transfer^z] )* () (@a3, @a5)");
  Result<CrpqResult> r = SnapshotEvalDlCrpq(g, q);
  ASSERT_TRUE(r.ok()) << r.error().message();
  EXPECT_TRUE(r.value().rows.empty());
  // Under `all` (bounded) witnesses exist.
  Crpq q_all = DlQ("q(z) := all ( ()[Transfer^z] )* " + cheap +
                   " ( ()[Transfer^z] )* " + cheap +
                   " ( ()[Transfer^z] )* () (@a3, @a5)");
  DlCrpqEvalOptions options;
  options.max_path_length = 8;
  options.max_bindings_per_pair = 50;
  Result<CrpqResult> ra = SnapshotEvalDlCrpq(g, q_all, options);
  ASSERT_TRUE(ra.ok());
  EXPECT_FALSE(ra.value().rows.empty());
}

TEST(DlCrpqEvalTest, JoinOnSharedEndpointAcrossDataTests) {
  // y is simultaneously: reachable from a blocked-looking account (a4, via
  // isBlocked = "yes") ... the Figure 3 graph has isBlocked as a property.
  PropertyGraph g = Figure3Graph();
  Crpq q = DlQ(
      "q(x, y) := (isBlocked = 'yes')( [Transfer] )+ () (x, y), "
      "( ()[Transfer][amount < 4500000] )+ () (w, y)");
  Result<CrpqResult> r = SnapshotEvalDlCrpq(g, q);
  ASSERT_TRUE(r.ok()) << r.error().message();
  // x must be a4 (the only blocked account); first hop from a4 is t9; y is
  // then a6 or beyond. Second atom requires y to be the target of a cheap
  // transfer path: the only cheap edge is t9 (a4→a6), so y = a6.
  std::set<std::string> rows = Rows(g, r.value());
  EXPECT_EQ(rows, (std::set<std::string>{"a4,a6"}));
}

TEST(DlCrpqEvalTest, SelfJoinWithTests) {
  PropertyGraph g = Figure3Graph();
  // Nodes on a transfer cycle avoiding expensive first hops.
  Crpq q = DlQ("q(x) := ( ()[Transfer] ){3} () (x, x)");
  Result<CrpqResult> r = SnapshotEvalDlCrpq(g, q);
  ASSERT_TRUE(r.ok());
  std::set<std::string> rows = Rows(g, r.value());
  // 3-cycles: {a3,a5,a1} and {a3,a4,a6}.
  EXPECT_EQ(rows, (std::set<std::string>{"a1", "a3", "a4", "a5", "a6"}));
}

TEST(DlCrpqEvalTest, NodeTestsAsAtoms) {
  PropertyGraph g = Figure3Graph();
  // Pure node-test atom: accounts owned by Mike (path of length 0).
  Crpq q = DlQ("q(x) := (owner = 'Mike') (x, x)");
  Result<CrpqResult> r = SnapshotEvalDlCrpq(g, q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Rows(g, r.value()), (std::set<std::string>{"a3"}));
  // Chained node tests collapse onto one node.
  Crpq q2 = DlQ("q(x) := (owner = 'Mike')(isBlocked = 'no') (x, x)");
  Result<CrpqResult> r2 = SnapshotEvalDlCrpq(g, q2);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(Rows(g, r2.value()), (std::set<std::string>{"a3"}));
  Crpq q3 = DlQ("q(x) := (owner = 'Mike')(isBlocked = 'yes') (x, x)");
  Result<CrpqResult> r3 = SnapshotEvalDlCrpq(g, q3);
  ASSERT_TRUE(r3.ok());
  EXPECT_TRUE(r3.value().rows.empty());
}

TEST(DlCrpqEvalTest, UnknownConstantIsError) {
  PropertyGraph g = Figure3Graph();
  EXPECT_FALSE(
      SnapshotEvalDlCrpq(g,
                         DlQ("q(x) := ( ()[Transfer] )+ () (@nope, x)")).ok());
}

TEST(DlCrpqEvalTest, TruncationPropagates) {
  PropertyGraph g = Figure3Graph();
  Crpq q = DlQ("q(z) := all ( ()[Transfer^z] )+ () (@a3, @a3)");
  DlCrpqEvalOptions options;
  options.max_bindings_per_pair = 5;
  options.max_path_length = 20;
  Result<CrpqResult> r = SnapshotEvalDlCrpq(g, q, options);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().truncated);
  EXPECT_FALSE(r.value().rows.empty());
}

}  // namespace
}  // namespace gqzoo
