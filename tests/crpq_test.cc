#include <gtest/gtest.h>

#include <set>

#include "src/crpq/crpq_parser.h"
#include "src/crpq/eval.h"
#include "src/graph/builtin_graphs.h"
#include "src/graph/generators.h"
#include "tests/test_util.h"

namespace gqzoo {
namespace {

using testing_util::SnapshotEvalCrpq;

Crpq Q(const std::string& text,
       RegexDialect dialect = RegexDialect::kPlain) {
  Result<Crpq> q = ParseCrpq(text, dialect);
  if (!q.ok()) {
    ADD_FAILURE() << text << ": " << q.error().message();
    return Crpq{};
  }
  return q.value();
}

// Renders a result set as readable strings for assertions.
std::set<std::string> Rows(const EdgeLabeledGraph& g, const CrpqResult& r) {
  std::set<std::string> out;
  for (const auto& row : r.rows) {
    std::string s;
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) s += ",";
      s += CrpqValueToString(g, row[i]);
    }
    out.insert(s);
  }
  return out;
}

TEST(CrpqParserTest, ParsesHeadModesAndConstants) {
  Crpq q = Q("q(x, z) := shortest (Transfer^z)+ (x, @a5), owner(x, y)");
  EXPECT_EQ(q.name, "q");
  EXPECT_EQ(q.head, (std::vector<std::string>{"x", "z"}));
  ASSERT_EQ(q.atoms.size(), 2u);
  EXPECT_EQ(q.atoms[0].mode, PathMode::kShortest);
  EXPECT_TRUE(q.atoms[0].to.is_constant);
  EXPECT_EQ(q.atoms[0].to.name, "a5");
  EXPECT_EQ(q.atoms[1].mode, PathMode::kAll);
  EXPECT_EQ(q.ListVariables(), (std::vector<std::string>{"z"}));
  EXPECT_EQ(q.EndpointVariables(), (std::vector<std::string>{"x", "y"}));
}

TEST(CrpqParserTest, AcceptsColonDash) {
  EXPECT_TRUE(ParseCrpq("q(x) :- a(x, y)").ok());
}

TEST(CrpqParserTest, RegexEndingInGroupBeforeEndpoints) {
  Crpq q = Q("q(x, y) := (Transfer|owner) (x, y)");
  ASSERT_EQ(q.atoms.size(), 1u);
  EXPECT_EQ(q.atoms[0].regex->op(), Regex::Op::kUnion);
}

TEST(CrpqParserTest, RejectsIllFormedQueries) {
  // Head variable not in body (condition 5).
  EXPECT_FALSE(ParseCrpq("q(w) := a(x, y)").ok());
  // List variable shared between atoms (condition 4).
  EXPECT_FALSE(ParseCrpq("q(z) := a^z(x, y), b^z(y, w)").ok());
  // List variable also an endpoint (condition 3).
  EXPECT_FALSE(ParseCrpq("q(z) := a^z(z, y)").ok());
  // Missing endpoints.
  EXPECT_FALSE(ParseCrpq("q(x) := a b").ok());
  EXPECT_FALSE(ParseCrpq("q(x) := (x, y)").ok());
  EXPECT_FALSE(ParseCrpq("q(x)").ok());
}

TEST(CrpqEvalTest, Example13FirstQuery) {
  // q1(x1,x2,x3) := Transfer(x1,x2), Transfer(x1,x3), Transfer(x2,x3)
  // returns {(a3,a2,a4), (a6,a3,a5)} on Figure 2.
  EdgeLabeledGraph g = Figure2Graph();
  Crpq q = Q("q1(x1, x2, x3) := Transfer(x1, x2), Transfer(x1, x3), "
             "Transfer(x2, x3)");
  Result<CrpqResult> r = SnapshotEvalCrpq(g, q);
  ASSERT_TRUE(r.ok()) << r.error().message();
  EXPECT_EQ(Rows(g, r.value()),
            (std::set<std::string>{"a3,a2,a4", "a6,a3,a5"}));
  EXPECT_FALSE(r.value().truncated);
}

TEST(CrpqEvalTest, Example13SecondQuery) {
  // q2(x,x1,x2) := owner(y,x1), isBlocked(y,x2), (Transfer Transfer?)(x,y).
  EdgeLabeledGraph g = Figure2Graph();
  Crpq q = Q("q2(x, x1, x2) := owner(y, x1), isBlocked(y, x2), "
             "(Transfer Transfer?)(x, y)");
  Result<CrpqResult> r = SnapshotEvalCrpq(g, q);
  ASSERT_TRUE(r.ok()) << r.error().message();
  std::set<std::string> rows = Rows(g, r.value());
  // The example's witness: (a4, Rebecca, no) via the 2-transfer path
  // a4 → a6 → a5.
  EXPECT_TRUE(rows.count("a4,Rebecca,no")) << r.value().ToString(g);
  // Every row's account reaches an owned+blocked-status account in ≤2 hops.
  for (const std::string& row : rows) {
    EXPECT_NE(row.find(','), std::string::npos);
  }
}

TEST(CrpqEvalTest, Example17ShortestGroupedByEndpoints) {
  // q(x1,x2,z) := owner(y1,x1), owner(y2,x2), shortest (Transfer^z)+(y1,y2).
  EdgeLabeledGraph g = Figure2Graph();
  Crpq q = Q("q(x1, x2, z) := owner(y1, x1), owner(y2, x2), "
             "shortest (Transfer^z)+ (y1, y2)");
  Result<CrpqResult> r = SnapshotEvalCrpq(g, q);
  ASSERT_TRUE(r.ok()) << r.error().message();
  std::set<std::string> rows = Rows(g, r.value());
  // Example 17's two spotlighted answers.
  EXPECT_TRUE(rows.count("Jay,Rebecca,list(t10)")) << r.value().ToString(g);
  EXPECT_TRUE(rows.count("Mike,Megan,list(t7, t4)")) << r.value().ToString(g);
  // Shortest is per endpoint pair: the a3→a1 list has length 2 even though
  // a6→a5 admits a length-1 list.
  EXPECT_FALSE(rows.count("Mike,Megan,list(t10)"));
}

TEST(CrpqEvalTest, ConstantEndpoints) {
  EdgeLabeledGraph g = Figure2Graph();
  Crpq q = Q("q(x) := Transfer(@a3, x)");
  Result<CrpqResult> r = SnapshotEvalCrpq(g, q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Rows(g, r.value()), (std::set<std::string>{"a2", "a4", "a5"}));
  Crpq q2 = Q("q(x) := Transfer(x, @a5), owner(x, y)");
  Result<CrpqResult> r2 = SnapshotEvalCrpq(g, q2);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(Rows(g, r2.value()), (std::set<std::string>{"a3", "a6"}));
  // Unknown constant is an error.
  EXPECT_FALSE(SnapshotEvalCrpq(g, Q("q(x) := Transfer(@nope, x)")).ok());
}

TEST(CrpqEvalTest, SelfJoinEndpoints) {
  // R(x, x) matches self-loops of the virtual relation.
  EdgeLabeledGraph g = Figure2Graph();
  Crpq q = Q("q(x) := (Transfer Transfer Transfer)(x, x)");
  Result<CrpqResult> r = SnapshotEvalCrpq(g, q);
  ASSERT_TRUE(r.ok());
  // The 3-cycle a3 -t7-> a5 -t4-> a1 -t1-> a3 and the 3-cycle
  // a3 -t6-> a4 -t9-> a6 -t8-> a3 (and rotations).
  std::set<std::string> rows = Rows(g, r.value());
  EXPECT_TRUE(rows.count("a3"));
  EXPECT_TRUE(rows.count("a5"));
  EXPECT_TRUE(rows.count("a1"));
  EXPECT_TRUE(rows.count("a4"));
  EXPECT_TRUE(rows.count("a6"));
  EXPECT_FALSE(rows.count("Megan"));
}

TEST(CrpqEvalTest, ModesWithoutListVariablesAreVacuous) {
  // Per the (restricted) path homomorphism definition, modes act through
  // list variables; without them the atom contributes [[R]]_G. On a cycle,
  // `simple` with no list variable still returns the pair (u, u).
  EdgeLabeledGraph g = Cycle(3);
  Crpq all = Q("q(x, y) := all (a a a)(x, y)");
  Crpq simple = Q("q(x, y) := simple (a a a)(x, y)");
  Result<CrpqResult> r_all = SnapshotEvalCrpq(g, all);
  Result<CrpqResult> r_simple = SnapshotEvalCrpq(g, simple);
  ASSERT_TRUE(r_all.ok());
  ASSERT_TRUE(r_simple.ok());
  EXPECT_EQ(Rows(g, r_all.value()), Rows(g, r_simple.value()));
  EXPECT_EQ(r_all.value().rows.size(), 3u);  // (c0,c0), (c1,c1), (c2,c2)
}

TEST(CrpqEvalTest, SimpleModeWithListVariableExcludesCyclicWitnesses) {
  // With a list variable, `simple` requires an actual simple path: the
  // 3-cycle (length-3 loop) is not simple, so no bindings survive.
  EdgeLabeledGraph g = Cycle(3);
  Crpq q = Q("q(x, z) := simple (a^z a a)(x, x)");
  Result<CrpqResult> r = SnapshotEvalCrpq(g, q);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().rows.empty());
  // `trail` admits it (no repeated edges).
  Crpq qt = Q("q(x, z) := trail (a^z a a)(x, x)");
  Result<CrpqResult> rt = SnapshotEvalCrpq(g, qt);
  ASSERT_TRUE(rt.ok());
  EXPECT_EQ(rt.value().rows.size(), 3u);
}

TEST(CrpqEvalTest, AllModeOnCyclicGraphTruncates) {
  EdgeLabeledGraph g = Cycle(3);
  Crpq q = Q("q(z) := all (a^z)+ (x, x)");
  CrpqEvalOptions options;
  options.max_bindings_per_pair = 50;
  options.max_path_length = 30;
  Result<CrpqResult> r = SnapshotEvalCrpq(g, q, options);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().truncated);
  EXPECT_FALSE(r.value().rows.empty());
}

TEST(CrpqEvalTest, JoinAcrossAtomsIsConsistent) {
  // Triangle query on random graphs: CRPQ result equals a hand-rolled join.
  for (uint64_t seed : {41, 42, 43}) {
    EdgeLabeledGraph g = RandomGraph(6, 12, 2, seed);
    Crpq q = Q("q(x, y, w) := a(x, y), b(y, w), a(x, w)");
    Result<CrpqResult> r = SnapshotEvalCrpq(g, q);
    ASSERT_TRUE(r.ok());
    std::set<std::string> expected;
    std::optional<LabelId> la = g.FindLabel("a");
    std::optional<LabelId> lb = g.FindLabel("b");
    for (EdgeId e1 = 0; e1 < g.NumEdges(); ++e1) {
      if (!la || g.EdgeLabel(e1) != *la) continue;
      for (EdgeId e2 = 0; e2 < g.NumEdges(); ++e2) {
        if (!lb || g.EdgeLabel(e2) != *lb) continue;
        if (g.Tgt(e1) != g.Src(e2)) continue;
        for (EdgeId e3 = 0; e3 < g.NumEdges(); ++e3) {
          if (g.EdgeLabel(e3) != *la) continue;
          if (g.Src(e3) != g.Src(e1) || g.Tgt(e3) != g.Tgt(e2)) continue;
          expected.insert(std::string(g.NodeName(g.Src(e1))) + "," +
                          std::string(g.NodeName(g.Tgt(e1))) + "," +
                          std::string(g.NodeName(g.Tgt(e2))));
        }
      }
    }
    EXPECT_EQ(Rows(g, r.value()), expected) << "seed " << seed;
  }
}

TEST(CrpqEvalTest, EmptyConjunctionShortCircuits) {
  EdgeLabeledGraph g = Figure2Graph();
  Crpq q = Q("q(x) := Transfer(x, y), nonexistent(y, w)");
  Result<CrpqResult> r = SnapshotEvalCrpq(g, q);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().rows.empty());
}

TEST(CrpqEvalTest, RoundTripToString) {
  Crpq q = Q("q(x1, z) := owner(y1, x1), shortest (Transfer^z)+ (y1, @a5)");
  Crpq q2 = Q(q.ToString());
  EXPECT_EQ(q2.head, q.head);
  ASSERT_EQ(q2.atoms.size(), q.atoms.size());
  EXPECT_EQ(q2.atoms[1].mode, PathMode::kShortest);
  EXPECT_TRUE(q2.atoms[1].to.is_constant);
}

}  // namespace
}  // namespace gqzoo
