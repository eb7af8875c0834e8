// GraphSnapshot (label-indexed CSR) coverage: slice primitives against
// brute-force adjacency filtering, differential tests pinning the
// snapshot-backed evaluators to the definitional reference
// (src/fuzz/reference.h), the 64-bit product-state id regression, and
// parallel RPQ sharding.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "src/automata/counting.h"
#include "src/coregql/group_eval.h"
#include "src/coregql/pattern_parser.h"
#include "src/coregql/query.h"
#include "src/crpq/crpq_parser.h"
#include "src/crpq/eval.h"
#include "src/crpq/modes.h"
#include "src/datatest/dl_eval.h"
#include "src/fuzz/reference.h"
#include "src/graph/builtin_graphs.h"
#include "src/graph/csr.h"
#include "src/graph/generators.h"
#include "src/graph/graph_io.h"
#include "src/pmr/build.h"
#include "src/pmr/enumerate.h"
#include "src/rpq/bag_semantics.h"
#include "src/rpq/cardinality.h"
#include "src/rpq/product_graph.h"
#include "src/rpq/rpq_eval.h"
#include "src/util/query_context.h"
#include "src/util/thread_pool.h"
#include "tests/test_util.h"

namespace gqzoo {
namespace {

using testing_util::Rx;

// ---------------------------------------------------------------------------
// Slice primitives.

TEST(GraphSnapshotTest, SlicesMatchAdjacencyFiltering) {
  EdgeLabeledGraph g = RandomGraph(30, 120, 5, 7);
  GraphSnapshot snap(g);
  ASSERT_EQ(snap.NumNodes(), g.NumNodes());
  ASSERT_EQ(snap.NumEdges(), g.NumEdges());
  EXPECT_GT(snap.ApproxBytes(), 0u);

  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    // Wildcard slices carry exactly the node's out/in edges.
    std::multiset<EdgeId> out_expected(g.OutEdges(v).begin(),
                                       g.OutEdges(v).end());
    std::multiset<EdgeId> out_got;
    for (const GraphSnapshot::Hop& hop : snap.Out(v)) {
      EXPECT_EQ(hop.node, g.Tgt(hop.edge));
      out_got.insert(hop.edge);
    }
    EXPECT_EQ(out_got, out_expected);

    std::multiset<EdgeId> in_expected(g.InEdges(v).begin(),
                                      g.InEdges(v).end());
    std::multiset<EdgeId> in_got;
    for (const GraphSnapshot::Hop& hop : snap.In(v)) {
      EXPECT_EQ(hop.node, g.Src(hop.edge));
      in_got.insert(hop.edge);
    }
    EXPECT_EQ(in_got, in_expected);

    // Per-label slices partition the wildcard slice.
    for (LabelId l = 0; l < g.NumLabels(); ++l) {
      std::multiset<EdgeId> expected;
      for (EdgeId e : g.OutEdges(v)) {
        if (g.EdgeLabel(e) == l) expected.insert(e);
      }
      std::multiset<EdgeId> got;
      for (const GraphSnapshot::Hop& hop : snap.Out(v, l)) {
        EXPECT_EQ(g.EdgeLabel(hop.edge), l);
        got.insert(hop.edge);
      }
      EXPECT_EQ(got, expected);
    }
  }

  // Graph-wide label lists are sorted by edge id and complete.
  size_t total = 0;
  for (LabelId l = 0; l < g.NumLabels(); ++l) {
    GraphSnapshot::Slice slice = snap.EdgesWithLabel(l);
    total += slice.size();
    EdgeId prev = 0;
    bool first = true;
    for (const GraphSnapshot::Hop& hop : slice) {
      EXPECT_EQ(g.EdgeLabel(hop.edge), l);
      EXPECT_EQ(hop.node, g.Tgt(hop.edge));
      if (!first) {
        EXPECT_LT(prev, hop.edge);
      }
      prev = hop.edge;
      first = false;
    }
  }
  EXPECT_EQ(total, g.NumEdges());
}

TEST(GraphSnapshotTest, ForEachMatchHonorsEveryPredicateKind) {
  EdgeLabeledGraph g = RandomGraph(20, 80, 4, 11);
  GraphSnapshot snap(g);
  std::vector<LabelPred> preds = {
      LabelPred::None(), LabelPred::Any(), LabelPred::One(0),
      LabelPred::One(3), LabelPred::NegSet({1, 2})};
  for (const LabelPred& pred : preds) {
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      for (bool inverse : {false, true}) {
        std::multiset<EdgeId> expected;
        for (EdgeId e : inverse ? g.InEdges(v) : g.OutEdges(v)) {
          if (pred.Matches(g.EdgeLabel(e))) expected.insert(e);
        }
        std::multiset<EdgeId> got;
        snap.ForEachMatch(v, pred, inverse,
                          [&](const GraphSnapshot::Hop& hop) {
                            got.insert(hop.edge);
                          });
        EXPECT_EQ(got, expected);
      }
    }
  }
}

TEST(GraphSnapshotTest, NodeLabelIndexFromPropertyGraph) {
  PropertyGraph g;
  NodeId a = g.AddNode("a", "Account");
  NodeId b = g.AddNode("b", "Person");
  NodeId c = g.AddNode("c", "Account");
  g.AddEdge(a, b, "owner");
  g.AddEdge(c, b, "owner");
  GraphSnapshot snap(g);
  EXPECT_TRUE(snap.has_node_labels());
  LabelId account = *g.FindLabel("Account");
  LabelId person = *g.FindLabel("Person");
  auto accounts = snap.NodesWithLabel(account);
  EXPECT_EQ(std::vector<NodeId>(accounts.begin(), accounts.end()),
            (std::vector<NodeId>{a, c}));
  auto persons = snap.NodesWithLabel(person);
  EXPECT_EQ(std::vector<NodeId>(persons.begin(), persons.end()),
            (std::vector<NodeId>{b}));

  GraphSnapshot skeleton_only(g.skeleton());
  EXPECT_FALSE(skeleton_only.has_node_labels());
  EXPECT_TRUE(skeleton_only.NodesWithLabel(account).empty());
}

// ---------------------------------------------------------------------------
// Product-state id overflow regression (the PR's headline bugfix).
//
// Product ids were packed as `uint32_t id = v * num_states + q`; with
// 65536 nodes and a 65537-state automaton, the state (65535, 1) encodes to
// 65535 * 65537 + 1 = 2^32 + 64800, which wraps to the id of (0, 64800).
// The aliased entry was marked visited before the real one, so the seed
// BFS dropped the only answer. 64-bit ids make the encoding injective.
TEST(RpqOverflowRegressionTest, ProductIdsPastFourBillionDoNotAlias) {
  EdgeLabeledGraph g;
  std::vector<NodeId> nodes;
  nodes.reserve(65536);
  for (size_t i = 0; i < 65536; ++i) {
    nodes.push_back(g.AddNode("n" + std::to_string(i)));
  }
  LabelId j = g.InternLabel("j");
  g.AddEdge(nodes[0], nodes[65535], j);

  // 65537 states; only 0 -j-> 1 matters, 1 accepting. The dead states
  // exist purely to push the product size past 2^32.
  Nfa nfa(65537);
  nfa.AddTransition(0, {1, LabelPred::One(j), Nfa::kNoCapture, false});
  nfa.set_accepting(1, true);
  ASSERT_GT(static_cast<uint64_t>(g.NumNodes()) * nfa.num_states(),
            uint64_t{1} << 32);

  GraphSnapshot snap(g);
  EXPECT_EQ(EvalRpqFrom(snap, nfa, nodes[0]),
            (std::vector<NodeId>{nodes[65535]}));
  EXPECT_TRUE(EvalRpqPair(snap, nfa, nodes[0], nodes[65535]));
}

TEST(RpqOverflowRegressionTest, MaterializedProductPastLimitThrows) {
  // ProductGraph materializes per-node adjacency, so it keeps 32-bit ids
  // but must refuse (not wrap) when the product exceeds them.
  EdgeLabeledGraph g;
  for (size_t i = 0; i < 65536; ++i) g.AddNode("n" + std::to_string(i));
  Nfa nfa(65537);
  nfa.set_accepting(0, true);
  GraphSnapshot snap(g);
  EXPECT_THROW(ProductGraph(snap, nfa), std::length_error);
}

// ---------------------------------------------------------------------------
// Differential: snapshot evaluation against the definitional reference.

using fuzz::ReferenceCrpq;
using fuzz::ReferenceModePaths;
using fuzz::ReferenceRpq;

struct DiffCase {
  uint64_t seed;
  const char* regex;
};

class SnapshotRpqDifferentialTest : public ::testing::TestWithParam<DiffCase> {
};

TEST_P(SnapshotRpqDifferentialTest, AllFromPairAndParallelAgree) {
  EdgeLabeledGraph g = RandomGraph(60, 360, 8, GetParam().seed);
  GraphSnapshot snap(g);
  RegexPtr regex = Rx(GetParam().regex);
  Nfa nfa = Nfa::FromRegex(*regex, g);

  const auto expected = ReferenceRpq(g, *regex);
  EXPECT_EQ(EvalRpq(snap, nfa), expected);

  ThreadPool pool(3);
  ParallelRpqOptions parallel;
  parallel.pool = &pool;
  EXPECT_EQ(EvalRpqParallel(snap, nfa, parallel), expected);
  parallel.num_shards = 7;
  EXPECT_EQ(EvalRpqParallel(snap, nfa, parallel), expected);

  for (NodeId u = 0; u < g.NumNodes(); u += 9) {
    std::vector<NodeId> from_u;
    for (const auto& [src, tgt] : expected) {
      if (src == u) from_u.push_back(tgt);
    }
    EXPECT_EQ(EvalRpqFrom(snap, nfa, u), from_u);
    for (NodeId v = 0; v < g.NumNodes(); v += 13) {
      EXPECT_EQ(EvalRpqPair(snap, nfa, u, v),
                std::binary_search(from_u.begin(), from_u.end(), v));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Random, SnapshotRpqDifferentialTest,
    ::testing::Values(DiffCase{1, "a"}, DiffCase{2, "a b c"},
                      DiffCase{3, "(a|b)* c"}, DiffCase{4, "!{a,b}*"},
                      DiffCase{5, "_ _"}, DiffCase{6, "(a b)* (c|d)"},
                      DiffCase{7, "~a* b"}, DiffCase{8, "(~a|b)*"}));

TEST(SnapshotDifferentialTest, ProductGraphArcOrderMatchesSeed) {
  // The label-sliced construction canonicalizes every node's arcs to the
  // order of an edge-major scan (edges by id, then states, then each
  // state's transitions), which truncated PMR enumeration depends on.
  for (uint64_t seed : {3u, 17u, 91u}) {
    EdgeLabeledGraph g = RandomGraph(25, 120, 6, seed);
    GraphSnapshot snap(g);
    for (const char* regex : {"a (b|c)*", "!{a} d*", "_ a"}) {
      Nfa nfa = Nfa::FromRegex(*Rx(regex), g);
      ProductGraph product(snap, nfa);
      const uint32_t states = nfa.num_states();
      std::vector<std::vector<ProductGraph::Arc>> expected(
          g.NumNodes() * states);
      for (EdgeId e = 0; e < g.NumEdges(); ++e) {
        for (uint32_t q = 0; q < states; ++q) {
          for (const Nfa::Transition& t : nfa.Out(q)) {
            if (!t.pred.Matches(g.EdgeLabel(e))) continue;
            expected[g.Src(e) * states + q].push_back(
                {g.Tgt(e) * states + t.to, e, t.capture, false});
          }
        }
      }
      ASSERT_EQ(product.num_product_nodes(), expected.size());
      for (uint32_t id = 0; id < product.num_product_nodes(); ++id) {
        const auto& got = product.Out(id);
        ASSERT_EQ(got.size(), expected[id].size()) << regex << " node " << id;
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].to, expected[id][i].to);
          EXPECT_EQ(got[i].edge, expected[id][i].edge);
          EXPECT_EQ(got[i].capture, expected[id][i].capture);
          EXPECT_FALSE(got[i].reversed);
        }
      }
    }
  }
}

TEST(SnapshotDifferentialTest, ModeEnumerationsAgree) {
  EdgeLabeledGraph g = RandomGraph(12, 40, 3, 23);
  GraphSnapshot snap(g);
  for (const char* regex : {"a b*", "(a|b) c?", "a{1,3}", "a^z b* c^z"}) {
    RegexPtr r = Rx(regex);
    Nfa nfa = Nfa::FromRegex(*r, g);
    EnumerationLimits limits;
    limits.max_results = 100000;  // non-truncating: path sets must be equal
    limits.max_length = 8;
    for (PathMode mode : {PathMode::kAll, PathMode::kShortest,
                          PathMode::kSimple, PathMode::kTrail}) {
      for (NodeId u = 0; u < g.NumNodes(); u += 3) {
        for (NodeId v = 0; v < g.NumNodes(); v += 4) {
          auto got = CollectModePaths(snap, nfa, u, v, mode, limits);
          auto expected =
              ReferenceModePaths(g, *r, u, v, mode, limits.max_length);
          ASSERT_TRUE(expected.has_value());
          // Only the length bound can cut here, and it keeps exactly the
          // matching paths of at most max_length edges.
          EXPECT_EQ(got, *expected)
              << regex << " mode " << PathModeName(mode) << " " << u << "->"
              << v;
        }
      }
    }
  }
}

TEST(SnapshotDifferentialTest, KShortestOverSnapshotPmrAgrees) {
  // The k shortest bindings are, length for length, the shortest of the
  // reference's path set (ties may come in any order).
  EdgeLabeledGraph g = RandomGraph(15, 60, 3, 31);
  GraphSnapshot snap(g);
  RegexPtr regex = Rx("a (b|c)*");
  Nfa nfa = Nfa::FromRegex(*regex, g);
  constexpr size_t kK = 5;
  constexpr size_t kMaxLength = 6;
  for (NodeId u = 0; u < g.NumNodes(); u += 4) {
    for (NodeId v = 0; v < g.NumNodes(); v += 5) {
      std::vector<PathBinding> got =
          KShortestPathBindings(BuildPmrBetween(snap, nfa, u, v), kK);
      auto expected =
          ReferenceModePaths(g, *regex, u, v, PathMode::kAll, kMaxLength);
      ASSERT_TRUE(expected.has_value());
      std::vector<size_t> got_lengths, expected_lengths;
      for (const PathBinding& pb : got) {
        if (pb.path.Length() > kMaxLength) continue;
        got_lengths.push_back(pb.path.Length());
        EXPECT_TRUE(std::binary_search(expected->begin(), expected->end(), pb));
      }
      for (const PathBinding& pb : *expected) {
        expected_lengths.push_back(pb.path.Length());
      }
      std::sort(expected_lengths.begin(), expected_lengths.end());
      expected_lengths.resize(std::min(expected_lengths.size(), kK));
      while (!expected_lengths.empty() &&
             expected_lengths.size() > got_lengths.size()) {
        expected_lengths.pop_back();
      }
      EXPECT_EQ(got_lengths, expected_lengths) << u << "->" << v;
    }
  }
}

std::set<std::string> CrpqRows(
    const EdgeLabeledGraph& g,
    const std::vector<std::vector<CrpqValue>>& rows) {
  std::set<std::string> out;
  for (const auto& row : rows) {
    std::string s;
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) s += ",";
      s += CrpqValueToString(g, row[i]);
    }
    out.insert(s);
  }
  return out;
}

TEST(SnapshotDifferentialTest, CrpqEvaluationAgrees) {
  EdgeLabeledGraph g = RandomGraph(25, 110, 4, 41);
  GraphSnapshot snap(g);
  const char* queries[] = {
      "q(x, y) := a* (x, y)",
      "q(x, z) := (a|b)+ (x, y), c* (y, z)",
      "q(x) := a b (x, y), !{c} (y, x)",
      "q(x, z) := shortest a^z b? (x, y), c (y, x)",
  };
  for (const char* text : queries) {
    Result<Crpq> q = ParseCrpq(text);
    ASSERT_TRUE(q.ok()) << text;
    auto expected = ReferenceCrpq(g, q.value(), 1000);
    ASSERT_TRUE(expected.has_value()) << text;

    CrpqEvalOptions options;
    options.snapshot = &snap;
    Result<CrpqResult> snap_r = EvalCrpq(g, q.value(), options);
    ASSERT_TRUE(snap_r.ok());
    EXPECT_FALSE(snap_r.value().truncated);
    EXPECT_EQ(CrpqRows(g, snap_r.value().rows), CrpqRows(g, *expected))
        << text;

    ThreadPool pool(2);
    options.pool = &pool;
    options.num_shards = 5;
    Result<CrpqResult> par_r = EvalCrpq(g, q.value(), options);
    ASSERT_TRUE(par_r.ok());
    EXPECT_EQ(CrpqRows(g, par_r.value().rows), CrpqRows(g, *expected))
        << text;
  }
}

TEST(SnapshotDifferentialTest, DlCrpqEvaluationAgrees) {
  // dl-CRPQs whose atoms only test labels mean the same as a plain CRPQ;
  // a data filter can only remove answers.
  PropertyGraph g = Figure3Graph();
  GraphSnapshot snap(g);
  struct Pair {
    const char* dl;
    const char* plain;
    bool filtered;
  };
  const Pair queries[] = {
      {"q(x, y) := ( ()[Transfer] )+ () (x, y)",
       "q(x, y) := Transfer+ (x, y)", false},
      {"q(x) := ( ()[Transfer][amount > 5000000] )+ () (x, y)",
       "q(x) := Transfer+ (x, y)", true},
      {"q(z) := trail ()[Transfer^z]( ()[Transfer^z] )+ () (@a3, @a3)",
       "q(z) := trail Transfer^z (Transfer^z)+ (@a3, @a3)", false},
      {"q(x, y) := shortest ( ()[Transfer] )+ () (x, y)",
       "q(x, y) := shortest Transfer+ (x, y)", false},
  };
  for (const Pair& pair : queries) {
    Result<Crpq> q = ParseCrpq(pair.dl, RegexDialect::kDl);
    ASSERT_TRUE(q.ok()) << pair.dl << ": " << q.error().message();
    DlCrpqEvalOptions options;
    options.snapshot = &snap;
    Result<CrpqResult> got = EvalDlCrpq(g, q.value(), options);
    ASSERT_TRUE(got.ok()) << got.error().message();
    EXPECT_FALSE(got.value().truncated);

    Result<Crpq> plain = ParseCrpq(pair.plain);
    ASSERT_TRUE(plain.ok()) << pair.plain << ": " << plain.error().message();
    // A trail has at most |E| edges.
    auto expected = ReferenceCrpq(g.skeleton(), plain.value(), g.NumEdges());
    ASSERT_TRUE(expected.has_value()) << pair.plain;
    std::set<std::string> got_rows = CrpqRows(g.skeleton(), got.value().rows);
    std::set<std::string> expected_rows = CrpqRows(g.skeleton(), *expected);
    if (pair.filtered) {
      EXPECT_FALSE(got_rows.empty()) << pair.dl;
      EXPECT_TRUE(std::includes(expected_rows.begin(), expected_rows.end(),
                                got_rows.begin(), got_rows.end()))
          << pair.dl;
    } else {
      EXPECT_EQ(got_rows, expected_rows) << pair.dl;
    }
  }
}

TEST(SnapshotDifferentialTest, CoreGqlQueriesAgree) {
  // A snapshot of the property graph answers label-filtered node atoms
  // from its node-label index; one of the bare skeleton has no such index
  // and scans. Both must give the same relation.
  PropertyGraph g = RandomPropertyGraph(20, 60, 10, 53);
  GraphSnapshot indexed(g);
  GraphSnapshot scanned(g.skeleton());
  ASSERT_TRUE(indexed.has_node_labels());
  ASSERT_FALSE(scanned.has_node_labels());
  const char* queries[] = {
      "MATCH (x)-[e]->(y) RETURN x, e, y",
      "MATCH (x:N)->(y) WHERE x.k = y.k RETURN x, y",
      "MATCH (x)-[:a]->(y), (y)-[:a]->(z) RETURN x, z",
      "MATCH (x)-[e:a]->(y) WHERE e.k = 3 RETURN x, y",
      "MATCH p = (x:N) ->{1,2} (y:N) RETURN p",
  };
  for (const char* text : queries) {
    CoreQueryEvalOptions options;
    options.path_options.snapshot = &indexed;
    Result<CoreQueryResult> from_index = RunCoreGql(g, text, options);
    ASSERT_TRUE(from_index.ok()) << text << ": "
                                 << from_index.error().message();
    options.path_options.snapshot = &scanned;
    Result<CoreQueryResult> from_scan = RunCoreGql(g, text, options);
    ASSERT_TRUE(from_scan.ok());
    EXPECT_EQ(from_index.value().relation.ToString(g.skeleton()),
              from_scan.value().relation.ToString(g.skeleton()))
        << text;
    EXPECT_EQ(from_index.value().truncated, from_scan.value().truncated);
  }
}

TEST(SnapshotDifferentialTest, GqlGroupPatternsAgree) {
  // Group variables change what a match binds, not which paths match: the
  // GQL group evaluation and the CoreGQL path evaluation of one pattern
  // produce the same path set.
  PropertyGraph g = ToPropertyGraph(RandomGraph(12, 36, 2, 61));
  GraphSnapshot snap(g);
  const char* patterns[] = {
      "(x) ( ()-[z:a]->() ){2} (y)",
      "(x) ( ()-[:a]->() | ()-[:b]->() ) (y)",
      "( ()-[z:a]->() ){1,2}",
  };
  for (const char* text : patterns) {
    Result<CorePatternPtr> p = ParseCorePattern(text);
    ASSERT_TRUE(p.ok()) << text << ": " << p.error().message();
    CorePathEvalOptions options;
    options.snapshot = &snap;
    Result<GqlEvalResult> group = EvalGqlGroupPattern(g, *p.value(), options);
    ASSERT_TRUE(group.ok()) << group.error().message();
    Result<CorePathEvalResult> core = EvalPatternPaths(g, *p.value(), options);
    ASSERT_TRUE(core.ok()) << core.error().message();
    EXPECT_FALSE(group.value().truncated);
    EXPECT_FALSE(core.value().truncated);
    std::set<Path> group_paths, core_paths;
    for (const GqlPathRow& row : group.value().rows) {
      group_paths.insert(row.path);
    }
    for (const CorePathRow& row : core.value().rows) {
      core_paths.insert(row.path);
    }
    EXPECT_FALSE(group_paths.empty()) << text;
    EXPECT_EQ(group_paths, core_paths) << text;
  }
}

TEST(SnapshotDifferentialTest, CountingBagAndCardinalityAgree) {
  EdgeLabeledGraph g = RandomGraph(10, 40, 4, 71);
  GraphSnapshot snap(g);

  // Glushkov automata of expressions that use each label once are
  // deterministic, so counting runs counts matching paths.
  RegexPtr counted = Rx("(a|b)* c");
  Nfa nfa = Nfa::FromRegex(*counted, g);
  constexpr size_t kBound = 5;
  for (NodeId u = 0; u < g.NumNodes(); u += 2) {
    for (NodeId v = 0; v < g.NumNodes(); v += 3) {
      auto paths =
          ReferenceModePaths(g, *counted, u, v, PathMode::kAll, kBound);
      ASSERT_TRUE(paths.has_value());
      EXPECT_EQ(CountRunsOnPaths(snap, nfa, u, v, kBound).ToString(),
                std::to_string(paths->size()));
    }
  }

  // A bag count is positive exactly on the set answers; without stars it
  // counts the matching paths times their parses (one each here).
  for (const char* regex : {"a*", "(a|b) c?", "!{a} b*"}) {
    RegexPtr r = Rx(regex);
    const auto answers = ReferenceRpq(g, *r);
    for (NodeId u = 0; u < g.NumNodes(); ++u) {
      for (NodeId v = 0; v < g.NumNodes(); ++v) {
        const bool in_set = std::binary_search(answers.begin(), answers.end(),
                                               std::make_pair(u, v));
        EXPECT_EQ(!BagCount(*r, snap, u, v).is_zero(), in_set)
            << regex << " " << u << "->" << v;
      }
    }
  }
  RegexPtr star_free = Rx("(a|b) c?");
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      auto paths = ReferenceModePaths(g, *star_free, u, v, PathMode::kAll, 2);
      ASSERT_TRUE(paths.has_value());
      EXPECT_EQ(BagCount(*star_free, snap, u, v).ToString(),
                std::to_string(paths->size()));
    }
  }

  GraphStatistics stats(snap);
  ASSERT_EQ(stats.num_nodes(), g.NumNodes());
  for (LabelId l = 0; l < g.NumLabels(); ++l) {
    size_t count = 0;
    std::set<NodeId> sources, targets;
    for (EdgeId e = 0; e < g.NumEdges(); ++e) {
      if (g.EdgeLabel(e) != l) continue;
      ++count;
      sources.insert(g.Src(e));
      targets.insert(g.Tgt(e));
    }
    EXPECT_EQ(stats.EdgeCount(l), count);
    EXPECT_EQ(stats.DistinctSources(l), sources.size());
    EXPECT_EQ(stats.DistinctTargets(l), targets.size());
  }

  // Sampling scales the mean answer count of the sampled start nodes.
  const auto answers = ReferenceRpq(g, *counted);
  std::mt19937_64 rng(99);
  std::uniform_int_distribution<NodeId> pick(
      0, static_cast<NodeId>(g.NumNodes() - 1));
  size_t reached = 0;
  for (int i = 0; i < 8; ++i) {
    NodeId u = pick(rng);
    reached += std::count_if(answers.begin(), answers.end(),
                             [u](const auto& p) { return p.first == u; });
  }
  EXPECT_DOUBLE_EQ(EstimateRpqCardinalitySampling(snap, nfa, 8, 99),
                   static_cast<double>(reached) / 8 *
                       static_cast<double>(g.NumNodes()));
}

// ---------------------------------------------------------------------------
// Parallel evaluation: budgets, cancellation, degenerate pools.

TEST(ParallelRpqTest, SmallGraphsFallBackToSequential) {
  EdgeLabeledGraph g = Figure2Graph();  // < kMinParallelNodes
  GraphSnapshot snap(g);
  Nfa nfa = Nfa::FromRegex(*Rx("Transfer*"), g);
  ThreadPool pool(2);
  ParallelRpqOptions options;
  options.pool = &pool;
  EXPECT_EQ(EvalRpqParallel(snap, nfa, options), EvalRpq(snap, nfa));
}

TEST(ParallelRpqTest, NullPoolAndSingleShardWork) {
  EdgeLabeledGraph g = RandomGraph(200, 800, 4, 83);
  GraphSnapshot snap(g);
  Nfa nfa = Nfa::FromRegex(*Rx("a b*"), g);
  auto expected = EvalRpq(snap, nfa);
  EXPECT_EQ(EvalRpqParallel(snap, nfa, {}), expected);
  ThreadPool pool(2);
  ParallelRpqOptions one_shard;
  one_shard.pool = &pool;
  one_shard.num_shards = 1;
  EXPECT_EQ(EvalRpqParallel(snap, nfa, one_shard), expected);
}

TEST(ParallelRpqTest, SubmitToShutDownPoolStillCompletes) {
  EdgeLabeledGraph g = RandomGraph(300, 1200, 4, 89);
  GraphSnapshot snap(g);
  Nfa nfa = Nfa::FromRegex(*Rx("(a|b) c*"), g);
  ThreadPool pool(2);
  pool.Shutdown();  // Submit returns false; the caller runs every shard
  ParallelRpqOptions options;
  options.pool = &pool;
  EXPECT_EQ(EvalRpqParallel(snap, nfa, options), EvalRpq(snap, nfa));
}

TEST(ParallelRpqTest, ShardBudgetsMergeIntoParentContext) {
  EdgeLabeledGraph g = RandomGraph(400, 2400, 3, 97);
  GraphSnapshot snap(g);
  Nfa nfa = Nfa::FromRegex(*Rx("(a|b|c)*"), g);

  // Generous budget: merged accounting must report work but not trip.
  {
    QueryContext ctx;
    ResourceBudgets budgets;
    budgets.steps = 100000000;
    ctx.set_budgets(budgets);
    ThreadPool pool(3);
    ParallelRpqOptions options;
    options.pool = &pool;
    options.cancel = &ctx;
    auto pairs = EvalRpqParallel(snap, nfa, options);
    EXPECT_EQ(ctx.stop_cause(), StopCause::kNone);
    EXPECT_GT(ctx.Report().steps, 0u);
    EXPECT_EQ(pairs, EvalRpq(snap, nfa));
  }

  // Tiny budget: some shard trips, the cause propagates to the parent,
  // and the partial result is returned unsorted-but-valid (no crash, no
  // deadlock — helpers must all retire before EvalRpqParallel returns).
  {
    QueryContext ctx;
    ResourceBudgets budgets;
    budgets.steps = 500;
    ctx.set_budgets(budgets);
    ThreadPool pool(3);
    ParallelRpqOptions options;
    options.pool = &pool;
    options.cancel = &ctx;
    (void)EvalRpqParallel(snap, nfa, options);
    EXPECT_EQ(ctx.stop_cause(), StopCause::kStepBudget);
  }
}

TEST(ParallelRpqTest, TrippedEvaluationSkipsFinalSort) {
  // PR-1 contract: a stopped evaluation returns whatever it has without
  // spending time sorting. Verify via the sequential snapshot path, whose
  // output ordering for a completed run is sorted.
  EdgeLabeledGraph g = RandomGraph(400, 2400, 3, 101);
  GraphSnapshot snap(g);
  Nfa nfa = Nfa::FromRegex(*Rx("(a|b|c)*"), g);

  QueryContext ctx;
  ResourceBudgets budgets;
  budgets.steps = 200;
  ctx.set_budgets(budgets);
  auto partial = EvalRpq(snap, nfa, &ctx);
  EXPECT_EQ(ctx.stop_cause(), StopCause::kStepBudget);
  auto full = EvalRpq(snap, nfa, nullptr);
  EXPECT_LT(partial.size(), full.size());
  EXPECT_TRUE(std::is_sorted(full.begin(), full.end()));
}

}  // namespace
}  // namespace gqzoo
