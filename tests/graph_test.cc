#include <gtest/gtest.h>

#include "src/graph/builtin_graphs.h"
#include "src/graph/csr.h"
#include "src/graph/graph.h"
#include "src/graph/graph_io.h"
#include "src/graph/path.h"

namespace gqzoo {
namespace {

TEST(EdgeLabeledGraphTest, BasicConstruction) {
  EdgeLabeledGraph g;
  NodeId a = g.AddNode("a");
  NodeId b = g.AddNode("b");
  EdgeId e = g.AddEdge(a, b, "knows", "e0");
  EXPECT_EQ(g.NumNodes(), 2u);
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_EQ(g.Src(e), a);
  EXPECT_EQ(g.Tgt(e), b);
  EXPECT_EQ(g.LabelName(g.EdgeLabel(e)), "knows");
  EXPECT_EQ(g.FindNode("a"), std::optional<NodeId>(a));
  EXPECT_EQ(g.FindEdge("e0"), std::optional<EdgeId>(e));
  EXPECT_EQ(g.FindNode("zzz"), std::nullopt);
  GraphSnapshot snap(g);
  ASSERT_EQ(snap.Out(a).size(), 1u);
  ASSERT_EQ(snap.In(b).size(), 1u);
  EXPECT_TRUE(snap.Out(b).empty());
}

TEST(EdgeLabeledGraphTest, ParallelEdgesAreDistinct) {
  // Definition 4 allows two edges with the same endpoints and label (the
  // paper's t2 and t5).
  EdgeLabeledGraph g;
  NodeId a = g.AddNode();
  NodeId b = g.AddNode();
  EdgeId e1 = g.AddEdge(a, b, "Transfer");
  EdgeId e2 = g.AddEdge(a, b, "Transfer");
  EXPECT_NE(e1, e2);
  EXPECT_EQ(GraphSnapshot(g).Out(a).size(), 2u);
}

TEST(PropertyGraphTest, PropertiesArePartial) {
  PropertyGraph g;
  NodeId a = g.AddNode("a1", "Account");
  NodeId b = g.AddNode("a2", "Account");
  g.SetProperty(ObjectRef::Node(a), "owner", Value("Megan"));
  EXPECT_EQ(g.GetProperty(ObjectRef::Node(a), "owner"), Value("Megan"));
  EXPECT_EQ(g.GetProperty(ObjectRef::Node(b), "owner"), std::nullopt);
  EXPECT_EQ(g.GetProperty(ObjectRef::Node(a), "nope"), std::nullopt);
  EXPECT_EQ(g.LabelName(g.NodeLabel(a)), "Account");
}

TEST(PropertyGraphTest, SkeletonIsTheEdgeLabeledRestriction) {
  PropertyGraph g = Figure3Graph();
  const EdgeLabeledGraph& skel = g.skeleton();
  EXPECT_EQ(skel.NumNodes(), g.NumNodes());
  EXPECT_EQ(skel.NumEdges(), g.NumEdges());
  EdgeId t1 = *g.FindEdge("t1");
  EXPECT_EQ(skel.LabelName(skel.EdgeLabel(t1)), "Transfer");
}

class PathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    g_ = Figure2Graph();
    a1_ = *g_.FindNode("a1");
    a2_ = *g_.FindNode("a2");
    a3_ = *g_.FindNode("a3");
    t1_ = *g_.FindEdge("t1");
    t2_ = *g_.FindEdge("t2");
  }

  Path P(std::vector<ObjectRef> objs) {
    Result<Path> p = Path::Make(g_, std::move(objs));
    if (!p.ok()) {
      ADD_FAILURE() << p.error().message();
      return Path();
    }
    return p.value();
  }

  EdgeLabeledGraph g_;
  NodeId a1_, a2_, a3_;
  EdgeId t1_, t2_;
};

TEST_F(PathTest, ExampleTenValidPaths) {
  // Example 10: path(a1, t1, a3, t2) is a valid node-to-edge path.
  Result<Path> p = Path::Make(g_, {ObjectRef::Node(a1_), ObjectRef::Edge(t1_),
                                   ObjectRef::Node(a3_), ObjectRef::Edge(t2_)});
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p.value().StartsWithNode());
  EXPECT_FALSE(p.value().EndsWithNode());
  EXPECT_EQ(p.value().Length(), 2u);
  EXPECT_EQ(p.value().Src(g_), a1_);
  EXPECT_EQ(p.value().Tgt(g_), a2_);  // tgt of t2 is a2

  // path(t1, a3, t2) is a valid edge-to-edge path.
  Result<Path> q = Path::Make(
      g_, {ObjectRef::Edge(t1_), ObjectRef::Node(a3_), ObjectRef::Edge(t2_)});
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value().Src(g_), a1_);  // src of t1

  // path(a1, t1, t1) repeats an edge without interleaving a node: invalid.
  Result<Path> bad = Path::Make(
      g_, {ObjectRef::Node(a1_), ObjectRef::Edge(t1_), ObjectRef::Edge(t1_)});
  EXPECT_FALSE(bad.ok());
}

TEST_F(PathTest, ExampleTenConcatenations) {
  // path(a1, t1, a3, t2, a2) arises from several concatenations.
  Path full = P({ObjectRef::Node(a1_), ObjectRef::Edge(t1_),
                 ObjectRef::Node(a3_), ObjectRef::Edge(t2_),
                 ObjectRef::Node(a2_)});
  Path p1 = P({ObjectRef::Node(a1_), ObjectRef::Edge(t1_),
               ObjectRef::Node(a3_)});
  Path p2 = P({ObjectRef::Node(a3_), ObjectRef::Edge(t2_),
               ObjectRef::Node(a2_)});
  Path p3 = P({ObjectRef::Node(a1_), ObjectRef::Edge(t1_)});
  Path p4 = P({ObjectRef::Edge(t1_), ObjectRef::Node(a3_),
               ObjectRef::Edge(t2_), ObjectRef::Node(a2_)});

  // Collapsing concatenation (shared node a3).
  Result<Path> c1 = Path::Concat(g_, p1, p2);
  ASSERT_TRUE(c1.ok());
  EXPECT_EQ(c1.value(), full);
  // Edge-to-node adjacency.
  Result<Path> c2 = Path::Concat(g_, p3, p2);
  ASSERT_TRUE(c2.ok());
  EXPECT_EQ(c2.value(), full);
  // Collapsing on a shared edge t1: len(p·p') < len(p) + len(p').
  Result<Path> c3 = Path::Concat(g_, p3, p4);
  ASSERT_TRUE(c3.ok());
  EXPECT_EQ(c3.value(), full);
  EXPECT_EQ(c3.value().Length(), 2u);
  EXPECT_LT(c3.value().Length(), p3.Length() + p4.Length());
}

TEST_F(PathTest, SingletonConcatIdempotent) {
  // path(o) · path(o) = path(o) for nodes AND edges (the paper's symmetric
  // design choice, different from GQL).
  Path node = Path::Singleton(ObjectRef::Node(a1_));
  Path edge = Path::Singleton(ObjectRef::Edge(t1_));
  EXPECT_EQ(Path::Concat(g_, node, node).value(), node);
  EXPECT_EQ(Path::Concat(g_, edge, edge).value(), edge);
}

TEST_F(PathTest, SelfLoopTraversalNeedsIncidentNode) {
  // Section 2: to traverse a self-loop twice, concatenate via the node.
  EdgeLabeledGraph g;
  NodeId u = g.AddNode("u");
  EdgeId loop = g.AddEdge(u, u, "a", "t0");
  Path t0 = Path::Singleton(ObjectRef::Edge(loop));
  Path u_t0 = Path::Make(g, {ObjectRef::Node(u), ObjectRef::Edge(loop)})
                  .value();
  EXPECT_EQ(Path::Concat(g, t0, t0).value().Length(), 1u);
  Result<Path> twice = Path::Concat(g, t0, u_t0);
  ASSERT_TRUE(twice.ok());
  EXPECT_EQ(twice.value().Length(), 2u);
  EXPECT_EQ(twice.value().NumObjects(), 3u);  // path(t0, u, t0)
}

TEST_F(PathTest, EmptyPathIsNeutral) {
  Path p = P({ObjectRef::Node(a1_), ObjectRef::Edge(t1_)});
  Path empty;
  EXPECT_EQ(Path::Concat(g_, p, empty).value(), p);
  EXPECT_EQ(Path::Concat(g_, empty, p).value(), p);
  EXPECT_TRUE(empty.empty());
}

TEST_F(PathTest, ELabSkipsNodes) {
  Path p = P({ObjectRef::Node(a1_), ObjectRef::Edge(t1_),
              ObjectRef::Node(a3_), ObjectRef::Edge(t2_),
              ObjectRef::Node(a2_)});
  std::vector<LabelId> lab = p.ELab(g_);
  ASSERT_EQ(lab.size(), 2u);
  EXPECT_EQ(g_.LabelName(lab[0]), "Transfer");
  EXPECT_EQ(g_.LabelName(lab[1]), "Transfer");
}

TEST_F(PathTest, SimpleAndTrail) {
  EdgeLabeledGraph g;
  NodeId u = g.AddNode("u");
  NodeId v = g.AddNode("v");
  EdgeId e1 = g.AddEdge(u, v, "a");
  EdgeId e2 = g.AddEdge(v, u, "a");
  // u -e1-> v -e2-> u: a trail (no repeated edge) but not simple (u twice).
  Path cycle = Path::Make(g, {ObjectRef::Node(u), ObjectRef::Edge(e1),
                              ObjectRef::Node(v), ObjectRef::Edge(e2),
                              ObjectRef::Node(u)})
                   .value();
  EXPECT_TRUE(cycle.IsTrail());
  EXPECT_FALSE(cycle.IsSimple());
  Path straight = Path::Make(g, {ObjectRef::Node(u), ObjectRef::Edge(e1),
                                 ObjectRef::Node(v)})
                      .value();
  EXPECT_TRUE(straight.IsSimple());
  EXPECT_TRUE(straight.IsTrail());
}

TEST_F(PathTest, ToStringUsesNames) {
  Path p = P({ObjectRef::Node(a1_), ObjectRef::Edge(t1_),
              ObjectRef::Node(a3_)});
  EXPECT_EQ(p.ToString(g_), "path(a1, t1, a3)");
}

TEST(BuiltinGraphTest, Figure2Topology) {
  EdgeLabeledGraph g = Figure2Graph();
  auto edge = [&](const std::string& name) { return *g.FindEdge(name); };
  auto node = [&](const std::string& name) { return *g.FindNode(name); };
  // The constraints documented in builtin_graphs.h.
  EXPECT_EQ(g.Src(edge("t1")), node("a1"));
  EXPECT_EQ(g.Tgt(edge("t1")), node("a3"));
  EXPECT_EQ(g.Src(edge("t2")), node("a3"));
  EXPECT_EQ(g.Tgt(edge("t2")), node("a2"));
  EXPECT_EQ(g.Src(edge("t5")), node("a3"));
  EXPECT_EQ(g.Tgt(edge("t5")), node("a2"));
  EXPECT_EQ(g.Tgt(edge("t7")), node("a5"));
  EXPECT_EQ(g.LabelName(g.EdgeLabel(edge("t1"))), "Transfer");
  EXPECT_EQ(g.LabelName(g.EdgeLabel(edge("r1"))), "owner");
  EXPECT_EQ(g.Tgt(edge("r10")), node("yes"));
  EXPECT_EQ(g.Tgt(edge("r9")), node("no"));
}

TEST(BuiltinGraphTest, Figure3Properties) {
  PropertyGraph g = Figure3Graph();
  NodeId a1 = *g.FindNode("a1");
  EXPECT_EQ(g.GetProperty(ObjectRef::Node(a1), "owner"), Value("Megan"));
  EdgeId t9 = *g.FindEdge("t9");
  ASSERT_TRUE(g.GetProperty(ObjectRef::Edge(t9), "amount").has_value());
  // t9 is the only transfer under the 4.5M threshold of Section 6.3.
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    std::optional<Value> amount = g.GetProperty(ObjectRef::Edge(e), "amount");
    ASSERT_TRUE(amount.has_value());
    if (e == t9) {
      EXPECT_LT(amount->ToDouble(), 4.5e6);
    } else {
      EXPECT_GE(amount->ToDouble(), 4.5e6);
    }
  }
}

TEST(GraphIoTest, RoundTrip) {
  PropertyGraph g = Figure3Graph();
  std::string text = PropertyGraphToText(g);
  Result<PropertyGraph> parsed = ParsePropertyGraph(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message();
  EXPECT_EQ(parsed.value().NumNodes(), g.NumNodes());
  EXPECT_EQ(parsed.value().NumEdges(), g.NumEdges());
  NodeId a1 = *parsed.value().FindNode("a1");
  EXPECT_EQ(parsed.value().GetProperty(ObjectRef::Node(a1), "owner"),
            Value("Megan"));
  EdgeId t9 = *parsed.value().FindEdge("t9");
  EXPECT_EQ(parsed.value().GetProperty(ObjectRef::Edge(t9), "amount"),
            Value(1.0e6));
}

TEST(GraphIoTest, ParseErrors) {
  EXPECT_FALSE(ParsePropertyGraph("node").ok());
  EXPECT_FALSE(ParsePropertyGraph("node x").ok());
  EXPECT_FALSE(ParsePropertyGraph("edge :T a -> b").ok());  // unknown nodes
  EXPECT_FALSE(ParsePropertyGraph("node a :N\nnode a :N").ok());  // duplicate
  EXPECT_FALSE(ParsePropertyGraph("node a :N { x = }").ok());
  EXPECT_FALSE(ParsePropertyGraph("frobnicate a :N").ok());
}

TEST(GraphIoTest, OversizedTextIsInvalidArgumentUpFront) {
  // The cap is checked before any parsing: a huge input must be rejected
  // by size alone (the filler here is not even valid graph text).
  std::string huge(kMaxGraphTextBytes + 1, '#');
  Result<PropertyGraph> r = ParsePropertyGraph(huge);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kInvalidArgument);
}

TEST(GraphIoTest, EveryByteTruncationParsesOrRejectsCleanly) {
  // A loader fed a partial file (crash mid-copy, truncated download) must
  // never crash or accept structurally broken text; each cut either parses
  // as a valid smaller graph or comes back kInvalidArgument.
  std::string text = PropertyGraphToText(Figure3Graph());
  for (size_t cut = 0; cut < text.size(); ++cut) {
    std::string prefix = text.substr(0, cut);
    Result<PropertyGraph> r = ParsePropertyGraph(prefix);
    if (r.ok()) {
      // Whatever parsed must itself round-trip (no half-ingested object).
      std::string rendered = PropertyGraphToText(r.value());
      Result<PropertyGraph> again = ParsePropertyGraph(rendered);
      ASSERT_TRUE(again.ok()) << "cut at " << cut;
      EXPECT_EQ(PropertyGraphToText(again.value()), rendered)
          << "cut at " << cut;
    } else {
      EXPECT_EQ(r.error().code(), ErrorCode::kInvalidArgument)
          << "cut at " << cut << ": " << r.error().message();
    }
  }
}

TEST(GraphIoTest, ParsesValuesAndComments) {
  Result<PropertyGraph> g = ParsePropertyGraph(R"(
    # a small graph
    node a :N { i = 42, d = 2.5, s = "hi", b = true }
    node b :N
    edge e1 :x a -> b { w = -3 }
    edge :x b -> a
  )");
  ASSERT_TRUE(g.ok()) << g.error().message();
  NodeId a = *g.value().FindNode("a");
  EXPECT_EQ(g.value().GetProperty(ObjectRef::Node(a), "i"), Value(42));
  EXPECT_EQ(g.value().GetProperty(ObjectRef::Node(a), "d"), Value(2.5));
  EXPECT_EQ(g.value().GetProperty(ObjectRef::Node(a), "s"), Value("hi"));
  EXPECT_EQ(g.value().GetProperty(ObjectRef::Node(a), "b"), Value(true));
  EdgeId e1 = *g.value().FindEdge("e1");
  EXPECT_EQ(g.value().GetProperty(ObjectRef::Edge(e1), "w"),
            Value(int64_t{-3}));
  EXPECT_EQ(g.value().NumEdges(), 2u);
}

TEST(GraphIoTest, ToPropertyGraphLifting) {
  EdgeLabeledGraph g = Figure2Graph();
  PropertyGraph pg = ToPropertyGraph(g, "Obj");
  EXPECT_EQ(pg.NumNodes(), g.NumNodes());
  EXPECT_EQ(pg.NumEdges(), g.NumEdges());
  EXPECT_EQ(pg.LabelName(pg.NodeLabel(*pg.FindNode("a1"))), "Obj");
  EXPECT_EQ(pg.LabelName(pg.EdgeLabel(*pg.FindEdge("t1"))), "Transfer");
}

}  // namespace
}  // namespace gqzoo
