// Randomized property tests across layers: BigUint vs native wide
// arithmetic, graph-text round trips, CoreGQL condition algebra, and the
// pattern pair/path consistency on random graphs.

#include <gtest/gtest.h>

#include <random>

#include "src/coregql/pattern_eval.h"
#include "src/coregql/pattern_parser.h"
#include "src/graph/generators.h"
#include "src/graph/graph_io.h"
#include "src/util/biguint.h"
#include "tests/test_util.h"

namespace gqzoo {
namespace {

using testing_util::SnapshotEvalPatternPaths;

TEST(BigUintPropertyTest, AgreesWithNativeWideArithmetic) {
  std::mt19937_64 rng(12345);
  std::uniform_int_distribution<uint64_t> dist(0, UINT64_MAX >> 1);
  for (int i = 0; i < 2000; ++i) {
    uint64_t a = dist(rng);
    uint64_t b = dist(rng);
    unsigned __int128 sum = static_cast<unsigned __int128>(a) + b;
    unsigned __int128 prod = static_cast<unsigned __int128>(a) * b;
    auto to_string = [](unsigned __int128 v) {
      if (v == 0) return std::string("0");
      std::string out;
      while (v > 0) {
        out.insert(out.begin(), static_cast<char>('0' + static_cast<int>(v % 10)));
        v /= 10;
      }
      return out;
    };
    EXPECT_EQ((BigUint(a) + BigUint(b)).ToString(), to_string(sum));
    EXPECT_EQ((BigUint(a) * BigUint(b)).ToString(), to_string(prod));
    EXPECT_EQ(BigUint(a) < BigUint(b), a < b);
  }
}

TEST(BigUintPropertyTest, RingLaws) {
  std::mt19937_64 rng(777);
  std::uniform_int_distribution<uint64_t> dist(0, 1000000);
  for (int i = 0; i < 200; ++i) {
    BigUint a(dist(rng)), b(dist(rng)), c(dist(rng));
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a * BigUint(1), a);
    EXPECT_TRUE((a * BigUint(0)).is_zero());
  }
}

TEST(GraphIoPropertyTest, RandomGraphsRoundTrip) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    PropertyGraph g = RandomPropertyGraph(12, 30, 50, seed);
    std::string text = PropertyGraphToText(g);
    Result<PropertyGraph> parsed = ParsePropertyGraph(text);
    ASSERT_TRUE(parsed.ok()) << parsed.error().message();
    const PropertyGraph& h = parsed.value();
    ASSERT_EQ(h.NumNodes(), g.NumNodes());
    ASSERT_EQ(h.NumEdges(), g.NumEdges());
    // Structure and properties survive (names identify elements).
    for (NodeId n = 0; n < g.NumNodes(); ++n) {
      NodeId m = *h.FindNode(std::string(g.NodeName(n)));
      EXPECT_EQ(h.LabelName(h.NodeLabel(m)), g.LabelName(g.NodeLabel(n)));
      EXPECT_EQ(h.GetProperty(ObjectRef::Node(m), "k"),
                g.GetProperty(ObjectRef::Node(n), "k"));
    }
    for (EdgeId e = 0; e < g.NumEdges(); ++e) {
      EdgeId f = *h.FindEdge(std::string(g.EdgeName(e)));
      EXPECT_EQ(h.NodeName(h.Src(f)), g.NodeName(g.Src(e)));
      EXPECT_EQ(h.NodeName(h.Tgt(f)), g.NodeName(g.Tgt(e)));
      EXPECT_EQ(h.GetProperty(ObjectRef::Edge(f), "k"),
                g.GetProperty(ObjectRef::Edge(e), "k"));
    }
    // And the serialization is stable.
    EXPECT_EQ(PropertyGraphToText(h), text);
  }
}

class ConditionAlgebraTest : public ::testing::Test {
 protected:
  void SetUp() override {
    g_ = RandomPropertyGraph(6, 10, 3, 99);
    // Bindings over a couple of elements.
    mu_["x"] = ObjectRef::Node(0);
    mu_["y"] = ObjectRef::Node(1);
    mu_["e"] = ObjectRef::Edge(0);
  }

  bool Eval(const std::string& text) {
    CoreCondPtr cond = ParseCoreCondition(text).ValueOrDie();
    return EvalCoreCondition(g_, *cond, mu_);
  }

  PropertyGraph g_ = RandomPropertyGraph(1, 0, 1, 0);
  CoreBinding mu_;
};

TEST_F(ConditionAlgebraTest, BooleanLaws) {
  // For a grid of atomic conditions, check De Morgan and double negation
  // against the evaluator.
  const char* atoms[] = {"x.k < y.k", "x.k = y.k", "e.k >= 1",
                         "x:N", "x.k != 2", "z.k = 1" /* unbound var */};
  for (const char* a : atoms) {
    for (const char* b : atoms) {
      std::string sa(a), sb(b);
      bool va = Eval(sa);
      bool vb = Eval(sb);
      EXPECT_EQ(Eval(sa + " AND " + sb), va && vb) << sa << " & " << sb;
      EXPECT_EQ(Eval(sa + " OR " + sb), va || vb);
      EXPECT_EQ(Eval("NOT (" + sa + " AND " + sb + ")"),
                Eval("NOT " + sa + " OR NOT " + sb));
      EXPECT_EQ(Eval("NOT (" + sa + " OR " + sb + ")"),
                Eval("NOT " + sa + " AND NOT " + sb));
      EXPECT_EQ(Eval("NOT NOT " + sa), va);
    }
  }
}

TEST_F(ConditionAlgebraTest, UnboundAndMissingAreFalse) {
  EXPECT_FALSE(Eval("z.k = 1"));
  EXPECT_TRUE(Eval("NOT z.k = 1"));
  EXPECT_FALSE(Eval("x.nonexistent = 1"));
  EXPECT_FALSE(Eval("x.nonexistent != 1"));  // missing ≠ three-valued logic
  EXPECT_FALSE(Eval("z:N"));
}

TEST(PatternConsistencyTest, PairsEqualPathProjectionsOnRandomGraphs) {
  // On random DAG-ish graphs (chains with extra forward edges) where
  // [[π]] is finite, pair-level and path-level evaluation agree.
  for (uint64_t seed : {5, 6, 7}) {
    std::mt19937_64 rng(seed);
    PropertyGraph g;
    const size_t n = 7;
    for (size_t i = 0; i < n; ++i) {
      NodeId node = g.AddNode("n" + std::to_string(i), "N");
      g.SetProperty(ObjectRef::Node(node), "k",
                    Value(static_cast<int64_t>(rng() % 5)));
    }
    for (size_t i = 0; i + 1 < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        if (rng() % 3 == 0 || j == i + 1) {
          EdgeId e = g.AddEdge(static_cast<NodeId>(i),
                               static_cast<NodeId>(j), "a");
          g.SetProperty(ObjectRef::Edge(e), "k",
                        Value(static_cast<int64_t>(rng() % 5)));
        }
      }
    }
    for (const char* text :
         {"(x) -> (y)", "(x) ->* (y)",
          "(x) ( ((u)->(v)) WHERE u.k <= v.k )* (y)",
          "(x) (-[e]-> () WHERE e.k > 1)? (y)",
          "(x) (->|->->) (y)"}) {
      CorePatternPtr p = ParseCorePattern(text).ValueOrDie();
      auto pairs = EvalPatternPairs(g, *p, GraphSnapshot(g)).ValueOrDie();
      auto paths = SnapshotEvalPatternPaths(g, *p).ValueOrDie();
      ASSERT_FALSE(paths.truncated) << text;
      std::set<CorePairRow> projected;
      for (const CorePathRow& r : paths.rows) {
        projected.insert({r.path.Src(g.skeleton()),
                          r.path.Tgt(g.skeleton()), r.mu});
      }
      std::set<CorePairRow> expected(pairs.begin(), pairs.end());
      EXPECT_EQ(projected, expected) << text << " seed " << seed;
    }
  }
}

}  // namespace
}  // namespace gqzoo
