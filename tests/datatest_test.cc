#include <gtest/gtest.h>

#include <map>
#include <set>

#include "src/crpq/crpq_parser.h"
#include "src/datatest/dl_eval.h"
#include "src/datatest/dl_rpq.h"
#include "src/graph/builtin_graphs.h"
#include "src/graph/generators.h"
#include "tests/test_util.h"

namespace gqzoo {
namespace {

using testing_util::DlRx;
using testing_util::SnapshotEvalDlCrpq;

// ---------------------------------------------------------------------------
// Independent oracle: the ⊢_R derivation semantics of Section 3.2.1,
// implemented by structural recursion on the AST (completely separate code
// path from DlNfa/DlEvaluator). Bounded by path length.
// ---------------------------------------------------------------------------

struct OracleTriple {
  Path p;
  std::map<std::string, Value> nu;
  Binding mu;

  bool operator<(const OracleTriple& o) const {
    if (p != o.p) return p < o.p;
    if (nu != o.nu) return nu < o.nu;
    return mu < o.mu;
  }
};

using TripleSet = std::set<OracleTriple>;

class Oracle {
 public:
  Oracle(const PropertyGraph& g, size_t max_len) : g_(g), max_len_(max_len) {}

  TripleSet Derive(const Regex& r, const TripleSet& in) {
    switch (r.op()) {
      case Regex::Op::kEpsilon:
        return in;
      case Regex::Op::kAtom:
        return StepAtom(r.atom(), in);
      case Regex::Op::kConcat:
        return Derive(*r.right(), Derive(*r.left(), in));
      case Regex::Op::kUnion: {
        TripleSet out = Derive(*r.left(), in);
        TripleSet rhs = Derive(*r.right(), in);
        out.insert(rhs.begin(), rhs.end());
        return out;
      }
      case Regex::Op::kOptional: {
        TripleSet out = in;
        TripleSet step = Derive(*r.child(), in);
        out.insert(step.begin(), step.end());
        return out;
      }
      case Regex::Op::kPlus:
      case Regex::Op::kStar: {
        TripleSet out = r.op() == Regex::Op::kStar ? in : TripleSet{};
        TripleSet frontier = in;
        // Saturate. Only usable for regexes without collapse-capture
        // loops (the tests below respect this).
        while (true) {
          frontier = Derive(*r.child(), frontier);
          size_t before = out.size();
          out.insert(frontier.begin(), frontier.end());
          if (out.size() == before) break;
        }
        return out;
      }
    }
    return {};
  }

 private:
  TripleSet StepAtom(const Atom& atom, const TripleSet& in) {
    TripleSet out;
    for (const OracleTriple& t : in) {
      // Candidate objects: anything if p is empty, else collapse/append.
      std::vector<ObjectRef> candidates;
      if (t.p.empty()) {
        for (NodeId n = 0; n < g_.NumNodes(); ++n) {
          candidates.push_back(ObjectRef::Node(n));
        }
        for (EdgeId e = 0; e < g_.NumEdges(); ++e) {
          candidates.push_back(ObjectRef::Edge(e));
        }
      } else {
        ObjectRef last = t.p.back();
        candidates.push_back(last);
        if (last.is_node()) {
          for (EdgeId e : g_.OutEdges(last.id)) {
            candidates.push_back(ObjectRef::Edge(e));
          }
        } else {
          candidates.push_back(ObjectRef::Node(g_.Tgt(last.id)));
        }
      }
      for (ObjectRef o : candidates) {
        OracleTriple next = t;
        if (!next.p.AppendObject(g_.skeleton(), o)) continue;
        if (next.p.Length() > max_len_) continue;
        if (!MatchAtom(atom, o, &next)) continue;
        out.insert(std::move(next));
      }
    }
    return out;
  }

  bool MatchAtom(const Atom& atom, ObjectRef o, OracleTriple* t) {
    if ((atom.target == Atom::Target::kNode) != o.is_node()) return false;
    if (!atom.is_test()) {
      LabelId label = g_.ObjectLabel(o);
      const std::string& name = g_.LabelName(label);
      switch (atom.label_kind) {
        case Atom::LabelKind::kOne:
          if (atom.labels[0] != name) return false;
          break;
        case Atom::LabelKind::kNegSet:
          for (const std::string& l : atom.labels) {
            if (l == name) return false;
          }
          break;
        case Atom::LabelKind::kAny:
          break;
        case Atom::LabelKind::kTest:
          return false;
      }
      if (atom.capture.has_value()) t->mu.Append(*atom.capture, o);
      return true;
    }
    const ElementTest& test = *atom.test;
    std::optional<Value> value = g_.GetProperty(o, test.property);
    if (!value.has_value()) return false;
    switch (test.kind) {
      case ElementTest::Kind::kAssign:
        t->nu[test.data_var] = *value;
        return true;
      case ElementTest::Kind::kCompareConst:
        return Value::Compare(*value, test.op, test.constant);
      case ElementTest::Kind::kCompareVar: {
        auto it = t->nu.find(test.data_var);
        if (it == t->nu.end()) return false;
        return Value::Compare(*value, test.op, it->second);
      }
    }
    return false;
  }

  const PropertyGraph& g_;
  size_t max_len_;
};

// Anchored oracle evaluation: (p, µ) with src(p) = u, tgt(p) = v, bounded.
std::vector<PathBinding> OracleEval(const PropertyGraph& g, const Regex& r,
                                    NodeId u, NodeId v, size_t max_len) {
  Oracle oracle(g, max_len);
  TripleSet start = {OracleTriple{}};
  std::vector<PathBinding> out;
  for (const OracleTriple& t : oracle.Derive(r, start)) {
    if (t.p.empty()) continue;
    if (t.p.Src(g.skeleton()) != u || t.p.Tgt(g.skeleton()) != v) continue;
    out.push_back({t.p, t.mu});
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// Unit tests for collapse and symmetry.
// ---------------------------------------------------------------------------

class DlBasicTest : public ::testing::Test {
 protected:
  void SetUp() override { g_ = Figure3Graph(); }

  std::vector<PathBinding> Eval(const std::string& regex, const char* u,
                                const char* v,
                                PathMode mode = PathMode::kAll,
                                size_t max_len = 8) {
    DlNfa nfa = DlNfa::FromRegex(*DlRx(regex), g_);
    GraphSnapshot snapshot(g_);
    DlEvaluator evaluator(g_, nfa, &snapshot);
    EnumerationLimits limits;
    limits.max_length = max_len;
    return evaluator.CollectModePaths(*g_.FindNode(u), *g_.FindNode(v), mode,
                                      limits);
  }

  PropertyGraph g_;
};

TEST_F(DlBasicTest, SingleNodeAtomMatchesThatNode) {
  std::vector<PathBinding> r = Eval("(Account)", "a1", "a1");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].path.ToString(g_.skeleton()), "path(a1)");
}

TEST_F(DlBasicTest, ConsecutiveAtomsCollapseOntoOneObject) {
  // (Account)(Account) matches a single node twice (collapse).
  std::vector<PathBinding> twice = Eval("(Account)(Account)", "a1", "a1");
  ASSERT_EQ(twice.size(), 1u);
  EXPECT_EQ(twice[0].path.NumObjects(), 1u);
  // (Account)(owner = 'Megan') further filters by property.
  EXPECT_EQ(Eval("(Account)(owner = 'Megan')", "a1", "a1").size(), 1u);
  EXPECT_TRUE(Eval("(Account)(owner = 'Megan')", "a3", "a3").empty());
}

TEST_F(DlBasicTest, EdgeAtomsAreSymmetricToNodeAtoms) {
  // [Transfer][amount < 4500000] matches exactly the edge t9 (a4 → a6),
  // as an edge-to-edge path.
  std::vector<PathBinding> r = Eval("[Transfer][amount < 4500000]", "a4",
                                    "a6");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].path.ToString(g_.skeleton()), "path(t9)");
  EXPECT_FALSE(r[0].path.StartsWithNode());
  EXPECT_EQ(r[0].path.Length(), 1u);
}

TEST_F(DlBasicTest, AdjacentEdgeAtomsWithDifferentLabelsMatchNothing) {
  // [Transfer][owner]: collapse requires one object with both labels.
  EXPECT_TRUE(Eval("[Transfer][owner]", "a1", "a3").empty());
}

TEST_F(DlBasicTest, CollapseCaptureAppendsTwice) {
  std::vector<PathBinding> r = Eval("[Transfer^z][Transfer^z]", "a4", "a6");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(ListToString(g_.skeleton(), r[0].mu.Get("z")), "list(t9, t9)");
}

TEST_F(DlBasicTest, AssignThenCompare) {
  // [x := amount][amount = x] trivially holds on any transfer.
  EXPECT_EQ(Eval("[Transfer][x := amount][amount = x]", "a4", "a6").size(),
            1u);
  // [x := amount][amount > x] never holds.
  EXPECT_TRUE(Eval("[Transfer][x := amount][amount > x]", "a4", "a6").empty());
}

TEST_F(DlBasicTest, UnboundDataVariableComparisonFails) {
  EXPECT_TRUE(Eval("[Transfer][amount > x]", "a4", "a6").empty());
}

TEST_F(DlBasicTest, UnknownPropertyFails) {
  EXPECT_TRUE(Eval("[Transfer][frobs < 1]", "a4", "a6").empty());
  EXPECT_TRUE(Eval("[x := frobs]", "a4", "a6").empty());
}

TEST_F(DlBasicTest, Example21IncreasingEdgeDates) {
  // Example 21, edge version. Figure 3 dates increase t1 < t2 < ... < t10.
  const std::string query =
      "()[Transfer^z][x := date]( (_)[Transfer^z][date > x][x := date] )*()";
  // a1 -t1-> a3 -t7-> a5: dates 01-01 < 01-07: accepted.
  std::vector<PathBinding> ok = Eval(query, "a1", "a5");
  bool found = false;
  for (const PathBinding& pb : ok) {
    if (pb.path.Length() == 2) {
      found = true;
      EXPECT_EQ(ListToString(g_.skeleton(), pb.mu.Get("z")), "list(t1, t7)");
    }
  }
  EXPECT_TRUE(found);
  // a6 -t8-> a3 -t2|t5-> a2: dates 01-08 > 01-02/01-05: the 2-edge paths
  // are rejected; no path a6 → a2 with increasing dates of length 2.
  for (const PathBinding& pb : Eval(query, "a6", "a2")) {
    EXPECT_NE(pb.path.Length(), 2u) << pb.path.ToString(g_.skeleton());
  }
}

TEST_F(DlBasicTest, Prop23CounterexampleRejectedByDlRpq) {
  // The Section 5.1 counterexample: a 4-edge path with edge values
  // 3, 4, 1, 2 fools the naive two-edge-window pattern but must be
  // rejected by the dl-RPQ (which threads x through every step).
  PropertyGraph pg;
  std::vector<NodeId> nodes;
  for (int i = 0; i < 5; ++i) {
    nodes.push_back(pg.AddNode("n" + std::to_string(i), "N"));
  }
  const int64_t values[] = {3, 4, 1, 2};
  for (int i = 0; i < 4; ++i) {
    EdgeId e = pg.AddEdge(nodes[i], nodes[i + 1], "a");
    pg.SetProperty(ObjectRef::Edge(e), "k", Value(values[i]));
  }
  DlNfa nfa = DlNfa::FromRegex(
      *DlRx("()[a][x := k]( (_)[a][k > x][x := k] )*()"), pg);
  GraphSnapshot snapshot(pg);
  DlEvaluator evaluator(pg, nfa, &snapshot);
  EnumerationLimits limits;
  // End-to-end (3,4,1,2) is not increasing: rejected.
  EXPECT_TRUE(evaluator.CollectModePaths(nodes[0], nodes[4], PathMode::kAll,
                                         limits)
                  .empty());
  // But the increasing prefix (3,4) is accepted.
  EXPECT_EQ(evaluator
                .CollectModePaths(nodes[0], nodes[2], PathMode::kAll, limits)
                .size(),
            1u);
}

TEST_F(DlBasicTest, Section63ShortestWithDataFilterTakesDetour) {
  // Shortest transfer path Mike (a3) → Rebecca (a5) with at least one
  // amount < 4.5M: the direct t7 is too expensive; the answer is
  // path(a3, t6, a4, t9, a6, t10, a5) of length 3.
  const std::string query =
      "( ()[Transfer] )* ()[Transfer][amount < 4500000] ( ()[Transfer] )* ()";
  std::vector<PathBinding> r =
      Eval(query, "a3", "a5", PathMode::kShortest, 20);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].path.ToString(g_.skeleton()),
            "path(a3, t6, a4, t9, a6, t10, a5)");
  // Without the filter the shortest path has length 1.
  DlNfa plain = DlNfa::FromRegex(*DlRx("( ()[Transfer] )* ()"), g_);
  GraphSnapshot snapshot(g_);
  EXPECT_EQ(DlEvaluator(g_, plain, &snapshot)
                .ShortestLength(*g_.FindNode("a3"), *g_.FindNode("a5")),
            1u);
}

TEST_F(DlBasicTest, Section63TwoCheapTransfersForceACycle) {
  // With two cheap transfers required, the shortest witness must traverse
  // t9 twice (only t9 is cheap), going around the a3→a4→a6→a3 cycle.
  const std::string cheap = "()[Transfer][amount < 4500000]";
  const std::string query = "( ()[Transfer] )* " + cheap +
                            " ( ()[Transfer] )* " + cheap +
                            " ( ()[Transfer] )* ()";
  DlNfa nfa = DlNfa::FromRegex(*DlRx(query), g_);
  GraphSnapshot snapshot(g_);
  DlEvaluator evaluator(g_, nfa, &snapshot);
  NodeId a3 = *g_.FindNode("a3");
  NodeId a5 = *g_.FindNode("a5");
  EXPECT_EQ(evaluator.ShortestLength(a3, a5), 6u);
  EnumerationLimits limits;
  limits.max_length = 10;
  std::vector<PathBinding> r =
      evaluator.CollectModePaths(a3, a5, PathMode::kShortest, limits);
  ASSERT_FALSE(r.empty());
  for (const PathBinding& pb : r) {
    EXPECT_EQ(pb.path.Length(), 6u);
    EXPECT_FALSE(pb.path.IsTrail());  // t9 repeats
  }
}

TEST_F(DlBasicTest, ReachabilityAndPairs) {
  DlNfa nfa = DlNfa::FromRegex(
      *DlRx("( ()[Transfer] )+ (owner = 'Rebecca')"), g_);
  GraphSnapshot snapshot(g_);
  DlEvaluator evaluator(g_, nfa, &snapshot);
  std::vector<NodeId> from_a4 = evaluator.ReachableFrom(*g_.FindNode("a4"));
  ASSERT_EQ(from_a4.size(), 1u);
  EXPECT_EQ(g_.NodeName(from_a4[0]), "a5");
  auto pairs = evaluator.AllPairs();
  for (const auto& [u, v] : pairs) {
    EXPECT_EQ(g_.NodeName(v), "a5");
  }
  EXPECT_FALSE(pairs.empty());
}

TEST_F(DlBasicTest, CollapseCaptureLoopTruncates) {
  DlNfa nfa = DlNfa::FromRegex(*DlRx("([Transfer^z])+"), g_);
  GraphSnapshot snapshot(g_);
  DlEvaluator evaluator(g_, nfa, &snapshot);
  EnumerationLimits limits;
  limits.max_results = 10;
  EnumerationStats stats;
  std::vector<PathBinding> r = evaluator.CollectModePaths(
      *g_.FindNode("a4"), *g_.FindNode("a6"), PathMode::kAll, limits, &stats);
  EXPECT_TRUE(stats.truncated);  // z can be pumped: list(t9), list(t9,t9), …
  ASSERT_FALSE(r.empty());
  EXPECT_EQ(r[0].path.ToString(g_.skeleton()), "path(t9)");
}

// ---------------------------------------------------------------------------
// Property tests against the oracle.
// ---------------------------------------------------------------------------

struct DlOracleCase {
  uint64_t seed;
  const char* regex;
};

// Prints the case by value: gtest's default dump of the raw bytes would put
// the regex pointer's address, which moves from build to build, into the
// test name.
void PrintTo(const DlOracleCase& c, std::ostream* os) {
  *os << "{" << c.seed << ", \"" << c.regex << "\"}";
}

class DlOracleTest : public ::testing::TestWithParam<DlOracleCase> {};

TEST_P(DlOracleTest, EvaluatorMatchesDerivationSemantics) {
  PropertyGraph g = RandomPropertyGraph(5, 8, 3, GetParam().seed);
  RegexPtr r = DlRx(GetParam().regex);
  DlNfa nfa = DlNfa::FromRegex(*r, g);
  GraphSnapshot snapshot(g);
  DlEvaluator evaluator(g, nfa, &snapshot);
  const size_t max_len = 3;
  EnumerationLimits limits;
  limits.max_length = max_len;
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      std::vector<PathBinding> got =
          evaluator.CollectModePaths(u, v, PathMode::kAll, limits);
      std::vector<PathBinding> expected = OracleEval(g, *r, u, v, max_len);
      EXPECT_EQ(got, expected)
          << GetParam().regex << " " << u << "->" << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Random, DlOracleTest,
    ::testing::Values(
        DlOracleCase{51, "(N)"}, DlOracleCase{52, "[a]"},
        DlOracleCase{53, "()[a]()"}, DlOracleCase{54, "( ()[a^z] )+ ()"},
        DlOracleCase{55, "(k < 2)"}, DlOracleCase{56, "[a][k > 0]"},
        DlOracleCase{57, "(x := k)( [_](k >= x)(x := k) )*"},
        DlOracleCase{58, "()[x := k]( (_)[k > x][x := k] )*()"},
        DlOracleCase{59, "((N) | [a])( [_] | (_) )"},
        DlOracleCase{60, "[a^z](_)[a^w]"}));

// ---------------------------------------------------------------------------
// dl-CRPQs (Section 3.2.2).
// ---------------------------------------------------------------------------

TEST(DlCrpqTest, JoinWithDataTests) {
  PropertyGraph g = Figure3Graph();
  // Accounts x that can reach, by transfers, an account y with a cheap
  // incoming transfer, such that y also reaches Rebecca's account.
  Result<Crpq> q = ParseCrpq(
      "q(x, y) := ( ()[Transfer] )+ [amount < 4500000] () (x, y), "
      "( ()[Transfer] )+ (owner = 'Rebecca') (y, w)",
      RegexDialect::kDl);
  ASSERT_TRUE(q.ok()) << q.error().message();
  Result<CrpqResult> r = SnapshotEvalDlCrpq(g, q.value());
  ASSERT_TRUE(r.ok()) << r.error().message();
  // The only cheap transfer is t9 (a4 → a6), so y = a6, and x is anything
  // that reaches a4 (all accounts, since the transfer graph is strongly
  // connected).
  std::set<std::string> ys;
  for (const auto& row : r.value().rows) {
    ys.insert(std::string(g.NodeName(std::get<NodeId>(row[1]))));
  }
  EXPECT_EQ(ys, (std::set<std::string>{"a6"}));
  EXPECT_EQ(r.value().rows.size(), 6u);
}

TEST(DlCrpqTest, ShortestModeWithListVariables) {
  PropertyGraph g = Figure3Graph();
  Result<Crpq> q = ParseCrpq(
      "q(z) := shortest ( ()[Transfer^z] )+ ()[Transfer^z]"
      "[amount < 4500000] ( ()[Transfer^z] )* () (@a3, @a5)",
      RegexDialect::kDl);
  ASSERT_TRUE(q.ok()) << q.error().message();
  Result<CrpqResult> r = SnapshotEvalDlCrpq(g, q.value());
  ASSERT_TRUE(r.ok()) << r.error().message();
  ASSERT_EQ(r.value().rows.size(), 1u);
  EXPECT_EQ(ListToString(g.skeleton(),
                         std::get<ObjectList>(r.value().rows[0][0])),
            "list(t6, t9, t10)");
}

}  // namespace
}  // namespace gqzoo
