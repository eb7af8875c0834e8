// E14 (Section 4.1.3): CoreGQL = pattern matching + relational algebra.
// The pipeline cost of the paper's example query
//   π_{x,x.s}(σ_{x1≠x2 ∧ x1.p=x2.p}(R^{π1} ⋈ R^{π2}))
// on growing random property graphs, plus a reachability-flavored block.

#include <benchmark/benchmark.h>

#include <cstdio>

#include <random>

#include "src/coregql/algebra.h"
#include "src/coregql/optimize.h"
#include "src/coregql/query.h"
#include "src/graph/generators.h"

namespace gqzoo {
namespace {

void BM_PaperJoinQuery(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  PropertyGraph g = RandomPropertyGraph(n, 4 * n, 16, /*seed=*/77);
  GraphSnapshot snap(g);
  size_t answers = 0;
  for (auto _ : state) {
    Result<CoreQueryResult> q = RunCoreGql(
        g, "MATCH (x)->(x1), (x)->(x2) WHERE x1.k = x2.k RETURN x, x1, x2",
        {.path_options = {.snapshot = &snap}});
    const CoreRelation& rel = q.value().relation;
    size_t i1 = rel.AttrIndex("x1");
    size_t i2 = rel.AttrIndex("x2");
    CoreRelation distinct =
        Select(rel, [&](const std::vector<CoreCell>& row) {
          return !(row[i1] == row[i2]);
        });
    Result<CoreRelation> out = Project(distinct, {"x"});
    answers = out.value().NumRows();
    benchmark::DoNotOptimize(out);
  }
  state.counters["answers"] = static_cast<double>(answers);
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_PaperJoinQuery)
    ->RangeMultiplier(2)
    ->Range(256, 4096)
    ->Complexity();

void BM_ReachabilityBlock(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  PropertyGraph g = RandomPropertyGraph(n, 2 * n, 16, /*seed=*/78);
  GraphSnapshot snap(g);
  size_t answers = 0;
  for (auto _ : state) {
    Result<CoreQueryResult> q =
        RunCoreGql(g, "MATCH (x) ->+ (y) WHERE x.k = 0 RETURN x, y",
                   {.path_options = {.snapshot = &snap}});
    answers = q.value().relation.NumRows();
    benchmark::DoNotOptimize(q);
  }
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_ReachabilityBlock)->RangeMultiplier(4)->Range(64, 1024);

void BM_SetOperationPipeline(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  PropertyGraph g = RandomPropertyGraph(n, 4 * n, 8, /*seed=*/79);
  GraphSnapshot snap(g);
  size_t answers = 0;
  for (auto _ : state) {
    Result<CoreQueryResult> q = RunCoreGql(
        g,
        "MATCH (x)->(y) RETURN x, y "
        "EXCEPT "
        "MATCH (x)->(y) WHERE x.k = y.k RETURN x, y",
        {.path_options = {.snapshot = &snap}});
    answers = q.value().relation.NumRows();
    benchmark::DoNotOptimize(q);
  }
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_SetOperationPipeline)->RangeMultiplier(4)->Range(64, 4096);

// Ablation (Section 7.1): pushing WHERE conjuncts into the pattern layer.
void PushdownCase(benchmark::State& state, bool optimize) {
  const size_t n = static_cast<size_t>(state.range(0));
  // Label-selective workload: only 1/8 of the nodes carry label "Hot".
  PropertyGraph g;
  std::mt19937_64 rng(4);
  for (size_t i = 0; i < n; ++i) {
    NodeId node = g.AddNode("n" + std::to_string(i),
                            i % 8 == 0 ? "Hot" : "Cold");
    g.SetProperty(ObjectRef::Node(node), "k",
                  Value(static_cast<int64_t>(rng() % 100)));
  }
  std::uniform_int_distribution<size_t> pick(0, n - 1);
  for (size_t e = 0; e < 4 * n; ++e) {
    g.AddEdge(static_cast<NodeId>(pick(rng)),
              static_cast<NodeId>(pick(rng)), "a");
  }
  CoreGqlQuery q = ParseCoreGqlQuery(
                       "MATCH (x)-[e]->(y), (y)-[f]->(w) "
                       "WHERE x:Hot AND w.k < 10 RETURN x, y, w")
                       .ValueOrDie();
  if (optimize) q = PushDownConditions(q);
  GraphSnapshot snap(g);
  size_t answers = 0;
  for (auto _ : state) {
    Result<CoreQueryResult> r =
        EvalCoreGqlQuery(g, q, {.path_options = {.snapshot = &snap}});
    answers = r.value().relation.NumRows();
    benchmark::DoNotOptimize(r);
  }
  state.counters["answers"] = static_cast<double>(answers);
}

void BM_WhereAfterJoin(benchmark::State& state) {
  PushdownCase(state, false);
}
BENCHMARK(BM_WhereAfterJoin)->RangeMultiplier(4)->Range(256, 4096);

void BM_WherePushedDown(benchmark::State& state) {
  PushdownCase(state, true);
}
BENCHMARK(BM_WherePushedDown)->RangeMultiplier(4)->Range(256, 4096);

}  // namespace
}  // namespace gqzoo

int main(int argc, char** argv) {
  printf("E14: CoreGQL pattern-then-algebra pipelines (Section 4.1.3 "
         "example query and friends), plus the Section 7.1 WHERE-pushdown "
         "ablation.\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
