#include "src/engine/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <string>
#include <vector>

#include "src/engine/executor.h"
#include "src/engine/language.h"
#include "src/engine/plan_cache.h"
#include "src/graph/builtin_graphs.h"
#include "src/graph/generators.h"
#include "src/graph/graph.h"
#include "src/graph/graph_io.h"
#include "src/regex/parser.h"

namespace gqzoo {
namespace {

QueryRequest Req(QueryLanguage language, const std::string& text) {
  QueryRequest request;
  request.language = language;
  request.text = text;
  return request;
}

/// The Figure 5 graph as a property graph: a chain s → v1 → ... → t of
/// `n` segments with two parallel a-edges each, i.e. 2^n distinct s→t
/// paths (all shortest).
PropertyGraph Figure5Chain(size_t n) {
  PropertyGraph g;
  std::vector<NodeId> nodes;
  nodes.push_back(g.AddNode("s", "Node"));
  for (size_t i = 1; i < n; ++i) {
    nodes.push_back(g.AddNode("v" + std::to_string(i), "Node"));
  }
  nodes.push_back(g.AddNode("t", "Node"));
  for (size_t i = 0; i < n; ++i) {
    g.AddEdge(nodes[i], nodes[i + 1], "a");
    g.AddEdge(nodes[i], nodes[i + 1], "a");
  }
  return g;
}

TEST(QueryLanguageTest, NamesRoundTrip) {
  for (size_t i = 0; i < kNumQueryLanguages; ++i) {
    QueryLanguage language = static_cast<QueryLanguage>(i);
    Result<QueryLanguage> parsed =
        ParseQueryLanguage(QueryLanguageName(language));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), language);
  }
  EXPECT_FALSE(ParseQueryLanguage("sparql").ok());
  // Aliases from the shell's command surface.
  Result<QueryLanguage> two_rpq = ParseQueryLanguage("2rpq");
  ASSERT_TRUE(two_rpq.ok());
  EXPECT_EQ(two_rpq.value(), QueryLanguage::kRpq);
}

TEST(QueryEngineTest, ExecutesEveryLanguage) {
  QueryEngine engine(Figure3Graph());
  std::vector<QueryRequest> requests = {
      Req(QueryLanguage::kRpq, "Transfer+"),
      Req(QueryLanguage::kRpq, "~Transfer"),
      Req(QueryLanguage::kCrpq, "q(x, y) :- Transfer+(x, y)"),
      Req(QueryLanguage::kDlCrpq, "q(x, y) := ( ()[Transfer] )+ () (x, y)"),
      Req(QueryLanguage::kCoreGql, "MATCH (x)-[:Transfer]->(y) RETURN x, y"),
      Req(QueryLanguage::kGqlGroup, "(x) (-[t:Transfer]->(v)){1,2} (y)"),
      Req(QueryLanguage::kRegular,
          "two(x, y) := Transfer(x, y), Transfer(y, x) ; "
          "q(u, v) := two*(u, v)"),
  };
  QueryRequest paths = Req(QueryLanguage::kPaths, "Transfer+");
  paths.paths.from = "a2";
  paths.paths.to = "a4";
  requests.push_back(paths);

  for (const QueryRequest& request : requests) {
    Result<QueryResponse> r = engine.Execute(request);
    ASSERT_TRUE(r.ok()) << QueryLanguageName(request.language) << " "
                        << request.text << ": "
                        << (r.ok() ? "" : r.error().message());
    EXPECT_FALSE(r.value().cache_hit);
  }
  EXPECT_EQ(engine.metrics().queries_ok.value(), requests.size());
  EXPECT_EQ(engine.metrics().queries_error.value(), 0u);
}

TEST(QueryEngineTest, SecondExecutionHitsPlanCache) {
  QueryEngine engine(Figure3Graph());
  QueryRequest request = Req(QueryLanguage::kCoreGql,
                             "MATCH (x)-[:Transfer]->(y) RETURN x, y");

  Result<QueryResponse> cold = engine.Execute(request);
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold.value().cache_hit);
  EXPECT_EQ(engine.metrics().cache_hits.value(), 0u);
  EXPECT_EQ(engine.metrics().cache_misses.value(), 1u);

  Result<QueryResponse> warm = engine.Execute(request);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.value().cache_hit);
  EXPECT_EQ(engine.metrics().cache_hits.value(), 1u);
  EXPECT_EQ(engine.metrics().cache_misses.value(), 1u);
  // Same plan, same answer.
  EXPECT_EQ(cold.value().text, warm.value().text);
  EXPECT_EQ(cold.value().num_rows, warm.value().num_rows);
}

TEST(QueryEngineTest, PushdownIsPartOfTheOnePlan) {
  // CoreGQL compiles with its WHERE pushdown applied: one cache entry
  // serves execution and EXPLAIN, EXPLAIN reports what was pushed, and the
  // rendered rows carry no pushdown header.
  QueryEngine engine(Figure3Graph());
  QueryRequest request = Req(QueryLanguage::kCoreGql,
                             "MATCH (x)-[t:Transfer]->(y) WHERE x:Account "
                             "AND t.amount > 0 RETURN x, y");
  Result<QueryResponse> rows = engine.Execute(request);
  ASSERT_TRUE(rows.ok()) << rows.error().message();
  EXPECT_EQ(rows.value().text.find("pushdown"), std::string::npos)
      << rows.value().text;
  EXPECT_GT(rows.value().num_rows, 0u);

  QueryRequest explain = request;
  explain.explain = true;
  Result<QueryResponse> plan = engine.Execute(explain);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan.value().cache_hit);
  EXPECT_EQ(plan.value().text.rfind("pushdown: 1 labels, 1 selections\n", 0),
            0u)
      << plan.value().text;
  EXPECT_EQ(engine.plan_cache().GetStats().entries, 1u);
}

TEST(QueryEngineTest, PlanCacheKeyHasNoDelimiterCollision) {
  // Regression: options used to be folded into the key by appending
  // "\x01opt" to the text. The key is the verbatim text, so a text with
  // that suffix must not share an entry with the text without it.
  const std::string base = "MATCH (x)-[:Transfer]->(y) RETURN x, y";
  PlanCacheKey plain{QueryLanguage::kCoreGql, base, 0, 0, 0};
  PlanCacheKey collider{QueryLanguage::kCoreGql, base + "\x01opt", 0, 0, 0};
  EXPECT_FALSE(plain == collider);

  // End to end: the colliding text is a parse error, so a shared cache
  // entry would instead return the first plan's (successful) response.
  QueryEngine engine(Figure3Graph());
  ASSERT_TRUE(engine.Execute(Req(QueryLanguage::kCoreGql, base)).ok());

  QueryRequest collider_req =
      Req(QueryLanguage::kCoreGql, base + "\x01opt");
  Result<QueryResponse> r = engine.Execute(collider_req);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kParse);
}

TEST(QueryEngineTest, CsrSnapshotFollowsGraphEpoch) {
  QueryEngine engine(Figure3Graph());
  std::shared_ptr<const GraphSnapshot> before = engine.csr_snapshot();
  ASSERT_NE(before, nullptr);
  const size_t before_nodes = before->NumNodes();
  EXPECT_EQ(before_nodes, engine.graph_snapshot()->NumNodes());

  // In-flight queries pin the snapshot they started with; a graph swap
  // must produce a fresh snapshot without disturbing the pinned one.
  engine.SetGraph(ToPropertyGraph(Clique(4)));
  std::shared_ptr<const GraphSnapshot> after = engine.csr_snapshot();
  EXPECT_NE(before.get(), after.get());
  EXPECT_EQ(after->NumNodes(), 4u);
  EXPECT_EQ(before->NumNodes(), before_nodes);  // still valid and unchanged
  EXPECT_NE(before_nodes, 4u);

  Result<QueryResponse> r = engine.Execute(Req(QueryLanguage::kRpq, "a"));
  ASSERT_TRUE(r.ok()) << r.error().message();
  EXPECT_EQ(r.value().num_rows, 12u);  // K4: every ordered pair once
}

TEST(QueryEngineTest, LruEvictionInTinyCache) {
  QueryEngine::Options options;
  options.cache_shards = 1;
  options.cache_capacity_per_shard = 2;
  QueryEngine engine(Figure3Graph(), options);

  ASSERT_TRUE(engine.Execute(Req(QueryLanguage::kRpq, "Transfer")).ok());
  ASSERT_TRUE(engine.Execute(Req(QueryLanguage::kRpq, "Transfer+")).ok());
  ASSERT_TRUE(engine.Execute(Req(QueryLanguage::kRpq, "Transfer*")).ok());

  PlanCache::Stats stats = engine.plan_cache().GetStats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);

  // "Transfer" was the least recently used, so it was evicted and has to
  // be recompiled; "Transfer*" is still resident.
  Result<QueryResponse> evicted =
      engine.Execute(Req(QueryLanguage::kRpq, "Transfer"));
  ASSERT_TRUE(evicted.ok());
  EXPECT_FALSE(evicted.value().cache_hit);
  Result<QueryResponse> resident =
      engine.Execute(Req(QueryLanguage::kRpq, "Transfer*"));
  ASSERT_TRUE(resident.ok());
  EXPECT_TRUE(resident.value().cache_hit);
}

TEST(QueryEngineTest, GraphEpochInvalidatesCachedPlans) {
  QueryEngine engine(Figure5Chain(3));
  QueryRequest request = Req(QueryLanguage::kRpq, "a+");

  Result<QueryResponse> before = engine.Execute(request);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(engine.Execute(request).value().cache_hit);
  EXPECT_EQ(engine.graph_epoch(), 0u);

  engine.SetGraph(Figure5Chain(5));
  EXPECT_EQ(engine.graph_epoch(), 1u);
  EXPECT_EQ(engine.metrics().graph_epoch_bumps.value(), 1u);

  Result<QueryResponse> after = engine.Execute(request);
  ASSERT_TRUE(after.ok());
  // The old plan's automaton was resolved against the old graph; the new
  // epoch forces a recompile, and the answer reflects the new graph.
  EXPECT_FALSE(after.value().cache_hit);
  EXPECT_GT(after.value().num_rows, before.value().num_rows);
}

TEST(QueryEngineTest, DeadlineExceededOnFigure5PathEnumeration) {
  // Figure 5, n = 30: 2^30 s→t paths. Unbounded `all` enumeration cannot
  // finish; the 100ms deadline must trip and surface as an error well
  // within 500ms (cooperative cancellation polls every few iterations).
  QueryEngine engine(Figure5Chain(30));
  QueryRequest request = Req(QueryLanguage::kPaths, "a+");
  request.paths.from = "s";
  request.paths.to = "t";
  request.paths.mode = PathMode::kAll;
  request.max_results = SIZE_MAX;  // no result-count safety net
  request.timeout = std::chrono::milliseconds(100);

  const auto start = std::chrono::steady_clock::now();
  Result<QueryResponse> r = engine.Execute(request);
  const auto elapsed = std::chrono::steady_clock::now() - start;

  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kDeadlineExceeded);
  EXPECT_LT(elapsed, std::chrono::milliseconds(500));
  EXPECT_EQ(engine.metrics().deadline_exceeded.value(), 1u);
  EXPECT_EQ(engine.metrics().queries_error.value(), 1u);

  // The engine is still healthy after a deadline: a cheap query succeeds.
  QueryRequest cheap = Req(QueryLanguage::kRpq, "a");
  EXPECT_TRUE(engine.Execute(cheap).ok());
}

TEST(QueryEngineTest, DefaultTimeoutAppliesWhenRequestHasNone) {
  QueryEngine::Options options;
  options.default_timeout = std::chrono::milliseconds(50);
  QueryEngine engine(Figure5Chain(30), options);

  QueryRequest request = Req(QueryLanguage::kPaths, "a+");
  request.paths.from = "s";
  request.paths.to = "t";
  request.max_results = SIZE_MAX;

  Result<QueryResponse> r = engine.Execute(request);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kDeadlineExceeded);

  // Disabling the default deadline lets a bounded query of the same shape
  // finish (small result cap => quick).
  engine.set_default_timeout(std::nullopt);
  request.max_results = 10;
  Result<QueryResponse> bounded = engine.Execute(request);
  ASSERT_TRUE(bounded.ok());
  EXPECT_TRUE(bounded.value().truncated);
  EXPECT_EQ(bounded.value().num_rows, 10u);
}

TEST(QueryEngineTest, ConcurrentMixedLanguageExecution) {
  QueryEngine::Options options;
  options.num_threads = 8;
  QueryEngine engine(Figure3Graph(), options);
  ASSERT_EQ(engine.num_threads(), 8u);

  std::vector<QueryRequest> mix = {
      Req(QueryLanguage::kRpq, "Transfer+"),
      Req(QueryLanguage::kRpq, "~Transfer"),
      Req(QueryLanguage::kCrpq, "q(x, y) :- Transfer+(x, y)"),
      Req(QueryLanguage::kDlCrpq, "q(x, y) := ( ()[Transfer] )+ () (x, y)"),
      Req(QueryLanguage::kCoreGql, "MATCH (x)-[:Transfer]->(y) RETURN x, y"),
      Req(QueryLanguage::kGqlGroup, "(x) (-[t:Transfer]->(v)){1,2} (y)"),
      Req(QueryLanguage::kRegular, "q(u, v) := Transfer(u, v)"),
  };
  QueryRequest paths = Req(QueryLanguage::kPaths, "Transfer+");
  paths.paths.from = "a2";
  paths.paths.to = "a4";
  mix.push_back(paths);

  // 3 rounds of 8 languages = 24 in-flight queries across the pool; later
  // rounds should be plan-cache hits.
  std::vector<std::future<Result<QueryResponse>>> futures;
  for (int round = 0; round < 3; ++round) {
    for (const QueryRequest& request : mix) {
      futures.push_back(engine.Submit(request));
    }
  }
  size_t hits = 0;
  for (auto& f : futures) {
    Result<QueryResponse> r = f.get();
    ASSERT_TRUE(r.ok()) << (r.ok() ? "" : r.error().message());
    if (r.value().cache_hit) ++hits;
  }
  EXPECT_EQ(engine.metrics().queries_total.value(), futures.size());
  EXPECT_EQ(engine.metrics().queries_ok.value(), futures.size());
  // Every plan is compiled at most a handful of times (concurrent misses
  // on the same key can race), and the steady state is all hits.
  EXPECT_GE(hits, futures.size() - 2 * mix.size());
  EXPECT_EQ(engine.metrics().cache_hits.value(), hits);
}

TEST(QueryEngineTest, ParseErrorsPropagateAndAreCounted) {
  QueryEngine engine(Figure3Graph());

  Result<QueryResponse> bad_rpq =
      engine.Execute(Req(QueryLanguage::kRpq, "(("));
  ASSERT_FALSE(bad_rpq.ok());
  EXPECT_EQ(bad_rpq.error().code(), ErrorCode::kParse);

  Result<QueryResponse> bad_gql =
      engine.Execute(Req(QueryLanguage::kCoreGql, "MATCH ("));
  ASSERT_FALSE(bad_gql.ok());
  EXPECT_EQ(bad_gql.error().code(), ErrorCode::kParse);

  Result<QueryResponse> bad_crpq =
      engine.Execute(Req(QueryLanguage::kCrpq, "q(w) :- a(x, y)"));
  ASSERT_FALSE(bad_crpq.ok());
  EXPECT_EQ(bad_crpq.error().code(), ErrorCode::kParse);

  EXPECT_EQ(engine.metrics().parse_errors.value(), 3u);
  EXPECT_EQ(engine.metrics().queries_error.value(), 3u);
  EXPECT_EQ(engine.plan_cache().GetStats().entries, 0u);  // never cached

  // The engine keeps serving after parse errors.
  EXPECT_TRUE(engine.Execute(Req(QueryLanguage::kRpq, "Transfer")).ok());
}

TEST(QueryEngineTest, PathQueriesResolveEndpointsPerRequest) {
  QueryEngine engine(Figure5Chain(4));

  QueryRequest request = Req(QueryLanguage::kPaths, "a+");
  request.paths.from = "s";
  request.paths.to = "t";
  Result<QueryResponse> all = engine.Execute(request);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.value().num_rows, 16u);  // 2^4 s→t paths

  // Same plan (cache hit), different endpoints.
  request.paths.to = "v2";
  Result<QueryResponse> prefix = engine.Execute(request);
  ASSERT_TRUE(prefix.ok());
  EXPECT_TRUE(prefix.value().cache_hit);
  EXPECT_EQ(prefix.value().num_rows, 4u);  // 2^2 s→v2 paths

  request.paths.to = "nowhere";
  Result<QueryResponse> missing = engine.Execute(request);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().code(), ErrorCode::kNotFound);

  // k-shortest through the same cached plan.
  request.paths.to = "t";
  request.paths.k_shortest = 3;
  Result<QueryResponse> kshortest = engine.Execute(request);
  ASSERT_TRUE(kshortest.ok());
  EXPECT_EQ(kshortest.value().num_rows, 3u);
}

// ---------------------------------------------------------------------------
// Resource governor: budgets, queue-wait deadlines, admission control.

TEST(QueryEngineTest, MemoryBudgetTripsOnFigure5PathEnumeration) {
  // Figure 5, n = 30: 2^30 s→t paths. With a 64 MB accounted-memory budget
  // the enumeration must stop with kResourceExhausted (not OOM) and report
  // which budget tripped; the engine stays healthy afterwards.
  QueryEngine engine(Figure5Chain(30));
  QueryRequest request = Req(QueryLanguage::kPaths, "a+");
  request.paths.from = "s";
  request.paths.to = "t";
  request.paths.mode = PathMode::kAll;
  request.max_results = SIZE_MAX;
  request.memory_budget = 64ull << 20;

  Result<QueryResponse> r = engine.Execute(request);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kResourceExhausted);
  EXPECT_NE(r.error().message().find("resource budget exhausted"),
            std::string::npos)
      << r.error().message();
  EXPECT_NE(r.error().message().find("memory"), std::string::npos)
      << r.error().message();
  EXPECT_EQ(engine.metrics().resource_exhausted.value(), 1u);
  EXPECT_GE(engine.metrics().peak_query_bytes.value(), 64ull << 20);

  // Subsequent queries run normally.
  EXPECT_TRUE(engine.Execute(Req(QueryLanguage::kRpq, "a")).ok());
}

TEST(QueryEngineTest, MemoryBudgetTripsOnCliqueGroupSemantics) {
  // Bag-semantics repetition over the 6-clique: the group-variable frontier
  // grows as ~30^j partial compositions. A 64 MB budget must stop it.
  QueryEngine engine(ToPropertyGraph(Clique(6)));
  QueryRequest request =
      Req(QueryLanguage::kGqlGroup, "(x) (-[t:a]->(v)){1,8} (y)");
  request.max_results = SIZE_MAX;
  request.memory_budget = 64ull << 20;

  Result<QueryResponse> r = engine.Execute(request);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kResourceExhausted);
  EXPECT_NE(r.error().message().find("memory"), std::string::npos)
      << r.error().message();
  EXPECT_TRUE(engine.Execute(Req(QueryLanguage::kRpq, "a")).ok());
}

TEST(QueryEngineTest, RowBudgetTripsWithStructuredReport) {
  QueryEngine engine(Figure5Chain(10));  // 1024 s→t paths
  QueryRequest request = Req(QueryLanguage::kPaths, "a+");
  request.paths.from = "s";
  request.paths.to = "t";
  request.max_results = SIZE_MAX;
  request.row_budget = 100;

  Result<QueryResponse> r = engine.Execute(request);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kResourceExhausted);
  EXPECT_NE(r.error().message().find("rows"), std::string::npos)
      << r.error().message();
  // The report carries partial progress: rows consumed over the limit.
  EXPECT_NE(r.error().message().find("rows=101/100"), std::string::npos)
      << r.error().message();
}

TEST(QueryEngineTest, StepBudgetBoundsWork) {
  QueryEngine engine(Figure5Chain(30));
  QueryRequest request = Req(QueryLanguage::kRpq, "a+");
  request.step_budget = 50;

  Result<QueryResponse> r = engine.Execute(request);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kResourceExhausted);
  EXPECT_NE(r.error().message().find("steps"), std::string::npos)
      << r.error().message();
}

TEST(QueryEngineTest, PathsBuildOnlyTheProductBetweenTheEndpoints) {
  // A 200-atom concatenation on a 200k-edge chain: the whole product has
  // ~4·10^7 states, the part reachable from (u1, q0) about 200. Paths
  // requests must build only the latter, well inside a 10 MB budget and a
  // deadline that a whole-product construction misses by far.
  QueryEngine engine(ToPropertyGraph(Chain(200000)));
  std::string regex = "a";
  for (int i = 1; i < 200; ++i) regex += " a";
  for (PathMode mode : {PathMode::kShortest, PathMode::kAll}) {
    QueryRequest request = Req(QueryLanguage::kPaths, regex);
    request.paths.from = "u1";
    request.paths.to = "u6";
    request.paths.mode = mode;
    request.memory_budget = 10'000'000;
    request.timeout = std::chrono::milliseconds(10000);
    Result<QueryResponse> r = engine.Execute(request);
    ASSERT_TRUE(r.ok()) << PathModeName(mode) << ": " << r.error().message();
    EXPECT_EQ(r.value().num_rows, 0u) << PathModeName(mode);
  }
}

TEST(QueryEngineTest, RegexDepthLimitIsAParseError) {
  // A concatenation of n atoms is a syntax tree n deep; kMaxRegexDepth
  // bounds every language that embeds a regex.
  QueryEngine engine(Figure3Graph());
  std::string at_limit = "Transfer";
  for (size_t i = 1; i < kMaxRegexDepth; ++i) at_limit += " Transfer";
  const std::string too_deep = at_limit + " Transfer";
  for (QueryLanguage language : {QueryLanguage::kRpq, QueryLanguage::kCrpq,
                                 QueryLanguage::kPaths}) {
    auto request = [&](const std::string& regex) {
      QueryRequest r = Req(language, language == QueryLanguage::kCrpq
                                         ? "q(x, y) :- (" + regex + ")(x, y)"
                                         : regex);
      r.paths.from = "a2";
      r.paths.to = "a4";
      return r;
    };
    Result<QueryResponse> ok = engine.Execute(request(at_limit));
    ASSERT_TRUE(ok.ok()) << QueryLanguageName(language) << ": "
                         << ok.error().message();
    Result<QueryResponse> deep = engine.Execute(request(too_deep));
    ASSERT_FALSE(deep.ok()) << QueryLanguageName(language);
    EXPECT_EQ(deep.error().code(), ErrorCode::kParse)
        << deep.error().message();
  }
}

TEST(QueryEngineTest, OversizedQueriesAreParseErrors) {
  // Flat chains whose trees outgrow kMaxRegexDepth, and a short regex that
  // desugars to more Glushkov positions than kMaxRegexPositions.
  QueryEngine engine(Figure3Graph());
  auto chain = [](std::string out, const std::string& unit, size_t steps) {
    for (size_t i = 0; i < steps; ++i) out += unit;
    return out;
  };
  const std::vector<QueryRequest> requests = {
      Req(QueryLanguage::kGqlGroup, chain("(x)", "->(x)", 20000)),
      Req(QueryLanguage::kGqlGroup, chain("(x)", "?", 50000)),
      Req(QueryLanguage::kGqlGroup,
          chain("( (x) WHERE x.k = 1", " AND x.k = 1", 200000)),
      Req(QueryLanguage::kCoreGql,
          "MATCH " + chain("(x)", "->(x)", 20000) + " RETURN x"),
      Req(QueryLanguage::kRpq, "(((a{60}){60}){60}){60}"),
      Req(QueryLanguage::kDlCrpq,
          "q(x, y) := ((((()[a]){60}){60}){60}){60} (x, y)"),
  };
  for (const QueryRequest& request : requests) {
    Result<QueryResponse> r = engine.Execute(request);
    ASSERT_FALSE(r.ok()) << request.text.substr(0, 40);
    EXPECT_EQ(r.error().code(), ErrorCode::kParse) << r.error().message();
  }
}

TEST(QueryEngineTest, HugeBalancedWhereSurvivesPushdown) {
  // A balanced AND of 2^17 copies of one conjunct passes the parser's depth
  // bound (18 levels). Pushdown must keep it balanced, both the conjuncts
  // left in WHERE (var-var) and the selections moved into a pattern
  // (var-constant): as a 2^17-deep chain it overflows the stack.
  QueryEngine engine(RandomPropertyGraph(8, 16, 2, 5));
  std::function<std::string(const std::string&, int)> balanced =
      [&](const std::string& leaf, int depth) -> std::string {
    if (depth == 0) return leaf;
    const std::string half = balanced(leaf, depth - 1);
    return "(" + half + " AND " + half + ")";
  };
  for (const std::string leaf : {"x.k = y.k", "x.k = 1"}) {
    auto query = [](const std::string& where) {
      return Req(QueryLanguage::kCoreGql,
                 "MATCH (x)-[]->(y) WHERE " + where + " RETURN x, y");
    };
    Result<QueryResponse> single = engine.Execute(query(leaf));
    ASSERT_TRUE(single.ok()) << single.error().message();
    EXPECT_GT(single.value().num_rows, 0u) << leaf;
    Result<QueryResponse> huge = engine.Execute(query(balanced(leaf, 17)));
    ASSERT_TRUE(huge.ok()) << huge.error().message();
    EXPECT_EQ(huge.value().text, single.value().text) << leaf;
  }
}

TEST(QueryEngineTest, MemoryBudgetTripsWhileBuildingPathPmr) {
  // `a*` from the head of a 100k-edge chain reaches every chain node; the
  // reached states alone exceed a 4 MB budget, so the PMR build trips
  // even though the trimmed u1→u2 PMR is tiny.
  QueryEngine engine(ToPropertyGraph(Chain(100000)));
  QueryRequest request = Req(QueryLanguage::kPaths, "a*");
  request.paths.from = "u1";
  request.paths.to = "u2";
  request.memory_budget = 4'000'000;
  for (uint32_t k : {0u, 2u}) {
    request.paths.k_shortest = k;
    Result<QueryResponse> r = engine.Execute(request);
    ASSERT_FALSE(r.ok()) << "k_shortest " << k;
    EXPECT_EQ(r.error().code(), ErrorCode::kResourceExhausted);
    EXPECT_NE(r.error().message().find("memory"), std::string::npos)
        << r.error().message();
  }
  request.memory_budget = 0;  // unlimited: the same request succeeds
  request.paths.k_shortest = 0;
  Result<QueryResponse> r = engine.Execute(request);
  ASSERT_TRUE(r.ok()) << r.error().message();
  EXPECT_EQ(r.value().num_rows, 1u);
}

TEST(QueryEngineTest, ResponseReportsAccountedPeakBytes) {
  // The same reach as above charges past 4 MB. A governed run reports its
  // accounted high-water on the response; an ungoverned one charges
  // nothing and reports 0.
  QueryEngine engine(ToPropertyGraph(Chain(100000)));
  QueryRequest request = Req(QueryLanguage::kPaths, "a*");
  request.paths.from = "u1";
  request.paths.to = "u2";
  Result<QueryResponse> ungoverned = engine.Execute(request);
  ASSERT_TRUE(ungoverned.ok()) << ungoverned.error().message();
  EXPECT_EQ(ungoverned.value().memory_peak_bytes, 0u);

  request.memory_budget = 1ull << 40;  // governed, never trips
  Result<QueryResponse> governed = engine.Execute(request);
  ASSERT_TRUE(governed.ok()) << governed.error().message();
  EXPECT_GT(governed.value().memory_peak_bytes, 4'000'000u);
  EXPECT_EQ(governed.value().memory_peak_bytes,
            engine.metrics().peak_query_bytes.value());
}

TEST(QueryEngineTest, ExplicitZeroBudgetOverridesEngineDefault) {
  QueryEngine engine(Figure5Chain(4));  // 16 s→t paths
  ResourceBudgets defaults;
  defaults.result_rows = 5;
  engine.set_default_budgets(defaults);

  QueryRequest request = Req(QueryLanguage::kPaths, "a+");
  request.paths.from = "s";
  request.paths.to = "t";
  Result<QueryResponse> capped = engine.Execute(request);
  ASSERT_FALSE(capped.ok());
  EXPECT_EQ(capped.error().code(), ErrorCode::kResourceExhausted);

  request.row_budget = 0;  // explicit 0 = unlimited, overriding the default
  Result<QueryResponse> unlimited = engine.Execute(request);
  ASSERT_TRUE(unlimited.ok());
  EXPECT_EQ(unlimited.value().num_rows, 16u);
}

TEST(QueryEngineTest, QueueWaitCountsAgainstSubmitDeadline) {
  // One worker; a 300ms blocker occupies it. A victim with a 25ms deadline
  // queued behind it must come back kDeadlineExceeded *without ever being
  // evaluated* — the deadline clock starts at Submit, and the fail-fast
  // check fires before compilation.
  QueryEngine::Options options;
  options.num_threads = 1;
  QueryEngine engine(Figure5Chain(30), options);

  QueryRequest blocker = Req(QueryLanguage::kPaths, "a+");
  blocker.paths.from = "s";
  blocker.paths.to = "t";
  blocker.paths.mode = PathMode::kAll;
  blocker.max_results = SIZE_MAX;
  blocker.timeout = std::chrono::milliseconds(300);

  QueryRequest victim = Req(QueryLanguage::kRpq, "a");
  victim.timeout = std::chrono::milliseconds(25);

  std::future<Result<QueryResponse>> blocked = engine.Submit(blocker);
  std::future<Result<QueryResponse>> shed = engine.Submit(victim);

  Result<QueryResponse> victim_result = shed.get();
  ASSERT_FALSE(victim_result.ok());
  EXPECT_EQ(victim_result.error().code(), ErrorCode::kDeadlineExceeded);
  EXPECT_NE(victim_result.error().message().find("before execution started"),
            std::string::npos)
      << victim_result.error().message();

  Result<QueryResponse> blocker_result = blocked.get();
  ASSERT_FALSE(blocker_result.ok());
  EXPECT_EQ(blocker_result.error().code(), ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(engine.metrics().deadline_exceeded.value(), 2u);
}

TEST(QueryEngineTest, AdmissionControlShedsExactOverflow) {
  // Capacity 4, two workers, eight long-running submissions: the first four
  // are admitted (queued or running both count as in flight), the next four
  // are shed immediately with kOverloaded.
  QueryEngine::Options options;
  options.num_threads = 2;
  options.governor.admission_capacity = 4;
  QueryEngine engine(Figure5Chain(30), options);

  QueryRequest heavy = Req(QueryLanguage::kPaths, "a+");
  heavy.paths.from = "s";
  heavy.paths.to = "t";
  heavy.paths.mode = PathMode::kAll;
  heavy.max_results = SIZE_MAX;
  heavy.timeout = std::chrono::milliseconds(200);

  std::vector<std::future<Result<QueryResponse>>> futures;
  for (int i = 0; i < 8; ++i) futures.push_back(engine.Submit(heavy));

  size_t shed = 0, deadline = 0;
  for (auto& f : futures) {
    Result<QueryResponse> r = f.get();
    ASSERT_FALSE(r.ok());
    if (r.error().code() == ErrorCode::kOverloaded) {
      ++shed;
      EXPECT_NE(r.error().message().find("shed"), std::string::npos);
    } else {
      EXPECT_EQ(r.error().code(), ErrorCode::kDeadlineExceeded);
      ++deadline;
    }
  }
  EXPECT_EQ(shed, 4u);
  EXPECT_EQ(deadline, 4u);
  EXPECT_EQ(engine.metrics().overloaded_shed.value(), 4u);
  EXPECT_EQ(engine.metrics().queue_depth_high_water.value(), 4u);
  EXPECT_EQ(engine.governor().shed_total(), 4u);
  EXPECT_EQ(engine.governor().in_flight(), 0u);

  // Once drained, submissions are admitted again.
  Result<QueryResponse> after = engine.Submit(Req(QueryLanguage::kRpq, "a")).get();
  EXPECT_TRUE(after.ok());
}

TEST(ThreadPoolTest, SubmitAfterShutdownIsRejected) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  EXPECT_TRUE(pool.Submit([&] { ran.fetch_add(1); }));
  pool.Shutdown();  // drains the queue, joins the workers
  EXPECT_EQ(ran.load(), 1);
  // A task submitted after shutdown is rejected, not silently dropped into
  // a queue nobody serves.
  EXPECT_FALSE(pool.Submit([&] { ran.fetch_add(1); }));
  EXPECT_EQ(ran.load(), 1);
  pool.Shutdown();  // idempotent
}

TEST(QueryEngineTest, MaxConcurrentGateStillCompletesAllAdmitted) {
  QueryEngine::Options options;
  options.num_threads = 4;
  options.governor.admission_capacity = 16;
  options.governor.max_concurrent = 1;  // serialize execution
  QueryEngine engine(Figure3Graph(), options);

  std::vector<std::future<Result<QueryResponse>>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(engine.Submit(Req(QueryLanguage::kRpq, "Transfer+")));
  }
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());
  EXPECT_EQ(engine.governor().in_flight(), 0u);
}

}  // namespace
}  // namespace gqzoo
