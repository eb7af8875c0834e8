// Robustness and cross-evaluator consistency:
//  * parsers must reject garbage with Result errors, never crash;
//  * the lazy pair evaluator, the all-pairs evaluator, and the PMR agree;
//  * the dl shortest-length search agrees with shortest-mode enumeration;
//  * generators produce the advertised shapes.

#include <gtest/gtest.h>

#include <future>
#include <random>
#include <set>
#include <vector>

#include "src/coregql/pattern_parser.h"
#include "src/engine/engine.h"
#include "src/coregql/query.h"
#include "src/crpq/crpq_parser.h"
#include "src/datatest/dl_eval.h"
#include "src/graph/generators.h"
#include "src/graph/graph_io.h"
#include "src/pmr/build.h"
#include "src/pmr/enumerate.h"
#include "src/regex/parser.h"
#include "src/rpq/rpq_eval.h"
#include "tests/test_util.h"

namespace gqzoo {
namespace {

using testing_util::Rx;
using testing_util::SnapshotRunCoreGql;

// Random strings over the token-ish character set; every parser must
// return (not crash, not hang) — ok or error both being acceptable.
TEST(ParserFuzzTest, RandomInputNeverCrashes) {
  const std::string alphabet =
      "ab xyz()[]{}<>|*+?^~!=.,:;@-'\"0123456789_ \t\n";
  std::mt19937_64 rng(20260707);
  std::uniform_int_distribution<size_t> len_dist(0, 40);
  std::uniform_int_distribution<size_t> char_dist(0, alphabet.size() - 1);
  for (int i = 0; i < 3000; ++i) {
    std::string input;
    size_t len = len_dist(rng);
    for (size_t j = 0; j < len; ++j) input += alphabet[char_dist(rng)];
    (void)ParseRegex(input, RegexDialect::kPlain);
    (void)ParseRegex(input, RegexDialect::kDl);
    (void)ParseCrpq(input);
    (void)ParseCorePattern(input);
    (void)ParseCoreGqlQuery(input);
    (void)ParsePropertyGraph(input);
  }
  SUCCEED();
}

// Mutations of valid queries: drop/duplicate single characters.
TEST(ParserFuzzTest, MutatedQueriesNeverCrash) {
  const std::string seeds[] = {
      "q(x1, x2, z) := owner(y1, x1), shortest (Transfer^z)+ (y1, @a5)",
      "MATCH p = (x) ( (u)-[e:a]->(v) WHERE u.k < v.k )* (y) RETURN p, x",
      "()[Transfer^z][x := date]( (_)[a^z][date > x][x := date] )*()",
      "node a :N { k = 1 }\nedge e :T a -> a { w = -2.5 }",
  };
  for (const std::string& seed : seeds) {
    for (size_t i = 0; i < seed.size(); ++i) {
      std::string dropped = seed.substr(0, i) + seed.substr(i + 1);
      std::string doubled = seed.substr(0, i) + seed[i] + seed.substr(i);
      for (const std::string& input : {dropped, doubled}) {
        (void)ParseCrpq(input);
        (void)ParseCrpq(input, RegexDialect::kDl);
        (void)ParseCoreGqlQuery(input);
        (void)ParseRegex(input, RegexDialect::kDl);
        (void)ParsePropertyGraph(input);
      }
    }
  }
  SUCCEED();
}

// Malformed graph files must come back as Result errors that name the
// offending line — never crashes, never silent acceptance.
TEST(GraphIoRobustnessTest, MalformedInputsReportLineNumbers) {
  const struct {
    const char* label;
    std::string text;
  } cases[] = {
      {"truncated node line", "node a :N\nnode b"},
      {"truncated edge line", "node a :N\nedge e :T a ->"},
      {"edge to unknown endpoint", "node a :N\nedge e :T a -> zz"},
      {"property block never closed", "node a :N { k = 1"},
      {"unterminated string", "node a :N { s = \"oops"},
      {"stray punctuation", "node a :N\n-> -> ->"},
      {"non-utf8 garbage", std::string("node a :N\n\xff\xfe\x80\x81 junk")},
      {"garbage after valid prefix",
       "node a :N\nedge e :T a -> a\n\x01\x02\x03"},
  };
  for (const auto& c : cases) {
    Result<PropertyGraph> g = ParsePropertyGraph(c.text);
    ASSERT_FALSE(g.ok()) << c.label;
    EXPECT_NE(g.error().message().find("line "), std::string::npos)
        << c.label << ": " << g.error().message();
  }
  // Huge numeric literals saturate instead of crashing; the graph itself
  // still round-trips.
  Result<PropertyGraph> huge = ParsePropertyGraph(
      "node a :N { k = 99999999999999999999999999999 }\n"
      "edge e :T a -> a { w = 1e500 }");
  ASSERT_TRUE(huge.ok()) << (huge.ok() ? "" : huge.error().message());
  EXPECT_EQ(huge.value().NumNodes(), 1u);
}

// Overload drill: twice the admission capacity in concurrent mixed-language
// submissions. Some must be shed with kOverloaded, nothing may deadlock,
// and the pool must drain clean (checked again under TSan in CI).
TEST(EngineOverloadTest, MixedLanguageOverloadDrainsClean) {
  QueryEngine::Options options;
  options.num_threads = 2;
  options.governor.admission_capacity = 4;
  QueryEngine engine(RandomPropertyGraph(12, 40, 3, 77), options);

  std::vector<QueryRequest> mix;
  auto req = [](QueryLanguage language, const std::string& text) {
    QueryRequest r;
    r.language = language;
    r.text = text;
    r.timeout = std::chrono::milliseconds(150);
    return r;
  };
  mix.push_back(req(QueryLanguage::kRpq, "a+"));
  mix.push_back(req(QueryLanguage::kCrpq, "q(x, y) :- a+(x, y), a*(y, x)"));
  mix.push_back(req(QueryLanguage::kCoreGql,
                    "MATCH (x)-[:a]->(y)-[:a]->(z) RETURN x, z"));
  mix.push_back(req(QueryLanguage::kGqlGroup, "(x) (-[t:a]->(v)){1,4} (y)"));

  std::vector<std::future<Result<QueryResponse>>> futures;
  for (int round = 0; round < 2; ++round) {
    for (const QueryRequest& r : mix) futures.push_back(engine.Submit(r));
  }
  size_t shed = 0, completed = 0;
  for (auto& f : futures) {
    Result<QueryResponse> r = f.get();  // nothing may hang
    if (!r.ok() && r.error().code() == ErrorCode::kOverloaded) {
      ++shed;
    } else {
      ++completed;  // ok, deadline, or budget — all are orderly outcomes
    }
  }
  EXPECT_EQ(shed + completed, futures.size());
  EXPECT_EQ(engine.metrics().overloaded_shed.value(), shed);
  EXPECT_LE(engine.metrics().queue_depth_high_water.value(), 4u);
  EXPECT_EQ(engine.governor().in_flight(), 0u);
  // The engine serves new queries after the storm.
  QueryRequest after;
  after.language = QueryLanguage::kRpq;
  after.text = "a";
  EXPECT_TRUE(engine.Submit(after).get().ok());
}

TEST(ConsistencyTest, PairEvaluatorsAgree) {
  for (uint64_t seed : {301, 302, 303}) {
    EdgeLabeledGraph g = RandomGraph(10, 25, 2, seed);
    for (const char* regex : {"a*", "(a b)+", "a (a|b)* b?"}) {
      Nfa nfa = Nfa::FromRegex(*Rx(regex), g);
      auto pairs = EvalRpq(GraphSnapshot(g), nfa);
      std::set<std::pair<NodeId, NodeId>> all(pairs.begin(), pairs.end());
      for (NodeId u = 0; u < g.NumNodes(); ++u) {
        std::vector<NodeId> from = EvalRpqFrom(GraphSnapshot(g), nfa, u);
        std::set<NodeId> from_set(from.begin(), from.end());
        for (NodeId v = 0; v < g.NumNodes(); ++v) {
          bool in_all = all.count({u, v}) > 0;
          EXPECT_EQ(in_all, from_set.count(v) > 0) << regex;
          EXPECT_EQ(in_all, EvalRpqPair(GraphSnapshot(g), nfa, u, v)) << regex;
          // And the PMR is non-empty exactly for answer pairs.
          Pmr pmr = BuildPmrBetween(GraphSnapshot(g), nfa, u, v);
          EXPECT_EQ(in_all, pmr.NumNodes() > 0) << regex;
        }
      }
    }
  }
}

TEST(ConsistencyTest, DlShortestLengthMatchesEnumeration) {
  for (uint64_t seed : {401, 402}) {
    PropertyGraph g = RandomPropertyGraph(8, 20, 3, seed);
    DlNfa nfa = DlNfa::FromRegex(
        *ParseRegex("( ()[a] )+ (k < 2)", RegexDialect::kDl).ValueOrDie(),
        g);
    GraphSnapshot snapshot(g);
    DlEvaluator evaluator(g, nfa, &snapshot);
    EnumerationLimits limits;
    limits.max_length = 12;
    for (NodeId u = 0; u < g.NumNodes(); ++u) {
      for (NodeId v = 0; v < g.NumNodes(); ++v) {
        size_t best = evaluator.ShortestLength(u, v);
        std::vector<PathBinding> shortest =
            evaluator.CollectModePaths(u, v, PathMode::kShortest, limits);
        if (best == SIZE_MAX) {
          EXPECT_TRUE(shortest.empty()) << u << "->" << v;
        } else {
          ASSERT_FALSE(shortest.empty()) << u << "->" << v;
          for (const PathBinding& pb : shortest) {
            EXPECT_EQ(pb.path.Length(), best) << u << "->" << v;
          }
        }
      }
    }
  }
}

TEST(ConsistencyTest, ReachableFromMatchesCollectedEndpoints) {
  PropertyGraph g = RandomPropertyGraph(7, 18, 3, 55);
  DlNfa nfa = DlNfa::FromRegex(
      *ParseRegex("( ()[a] ){1,4} ()", RegexDialect::kDl).ValueOrDie(), g);
  GraphSnapshot snapshot(g);
  DlEvaluator evaluator(g, nfa, &snapshot);
  EnumerationLimits limits;
  limits.max_length = 6;
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    std::vector<NodeId> reach = evaluator.ReachableFrom(u);
    std::set<NodeId> reach_set(reach.begin(), reach.end());
    std::set<NodeId> enumerated;
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      if (!evaluator.CollectModePaths(u, v, PathMode::kAll, limits).empty()) {
        enumerated.insert(v);
      }
    }
    EXPECT_EQ(reach_set, enumerated) << "from " << u;
  }
}

TEST(GeneratorShapeTest, AdvertisedSizes) {
  EXPECT_EQ(ParallelChain(5).NumNodes(), 6u);
  EXPECT_EQ(ParallelChain(5).NumEdges(), 10u);
  EXPECT_EQ(ParallelChain(5, 3).NumEdges(), 15u);
  EXPECT_EQ(Chain(7).NumNodes(), 8u);
  EXPECT_EQ(Chain(7).NumEdges(), 7u);
  EXPECT_EQ(Cycle(4).NumEdges(), 4u);
  EXPECT_EQ(Clique(5).NumEdges(), 20u);
  EXPECT_EQ(RandomGraph(10, 33, 2, 1).NumEdges(), 33u);
  EXPECT_EQ(SubsetSumChain({1, 2, 3}).NumEdges(), 6u);
  EXPECT_EQ(IncreasingEdgeChain(6, 0, 1).NumEdges(), 6u);
  EXPECT_EQ(TransferRing(9, 2, 100.0, 1).NumEdges(), 9u);
  EXPECT_EQ(TwoWayTransferChain(4).NumNodes(), 10u);  // 5 hubs + 5 decoys
  // TransferRing: exactly num_cheap amounts below the threshold.
  PropertyGraph ring = TransferRing(20, 3, 1000.0, 5);
  size_t cheap = 0;
  for (EdgeId e = 0; e < ring.NumEdges(); ++e) {
    if (ring.GetProperty(ObjectRef::Edge(e), "amount")->ToDouble() < 1000.0) {
      ++cheap;
    }
  }
  EXPECT_EQ(cheap, 3u);
  // Deterministic in the seed.
  EXPECT_EQ(PropertyGraphToText(RandomPropertyGraph(8, 16, 5, 9)),
            PropertyGraphToText(RandomPropertyGraph(8, 16, 5, 9)));
}

TEST(ConsistencyTest, CoreGqlPathlessAndPathBlocksAgreeOnElements) {
  PropertyGraph g = RandomPropertyGraph(6, 12, 3, 321);
  // The same pattern evaluated with and without a path binding projects to
  // the same element rows.
  Result<CoreQueryResult> plain =
      SnapshotRunCoreGql(g, "MATCH (x)-[e]->(y) RETURN x, e, y");
  Result<CoreQueryResult> with_path =
      SnapshotRunCoreGql(g, "MATCH p = (x)-[e]->(y) RETURN x, e, y");
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(with_path.ok());
  EXPECT_EQ(plain.value().relation.rows(), with_path.value().relation.rows());
}

}  // namespace
}  // namespace gqzoo
