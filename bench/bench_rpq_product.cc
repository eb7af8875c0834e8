// E10 (Section 6.2): RPQ evaluation by product-graph reachability is
// polynomial: linear-ish in graph size for fixed query, and scaling with
// automaton size. Also compares single-pair lazy BFS against all-pairs.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "src/graph/generators.h"
#include "src/regex/parser.h"
#include "src/rpq/product_graph.h"
#include "src/rpq/rpq_eval.h"

namespace gqzoo {
namespace {

const char* kQueries[] = {
    "a",                 // 2 states
    "a b",               // 3 states
    "(a b)* c",          // 4 states
    "(a|b)* a (a|b)",    // 5 states
    "a (b|c)* a (b|c)* a",  // 7-ish states
};

void BM_AllPairs_GraphScaling(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  EdgeLabeledGraph g = RandomGraph(n, 4 * n, 3, /*seed=*/11);
  GraphSnapshot snap(g);
  Nfa nfa = Nfa::FromRegex(
      *ParseRegex("(a b)* c", RegexDialect::kPlain).ValueOrDie(), g);
  size_t answers = 0;
  for (auto _ : state) {
    auto pairs = EvalRpq(snap, nfa);
    answers = pairs.size();
    benchmark::DoNotOptimize(pairs);
  }
  state.counters["answers"] = static_cast<double>(answers);
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_AllPairs_GraphScaling)
    ->RangeMultiplier(2)
    ->Range(64, 4096)
    ->Complexity();

void BM_SinglePair_GraphScaling(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  EdgeLabeledGraph g = RandomGraph(n, 4 * n, 3, /*seed=*/11);
  GraphSnapshot snap(g);
  Nfa nfa = Nfa::FromRegex(
      *ParseRegex("(a b)* c", RegexDialect::kPlain).ValueOrDie(), g);
  for (auto _ : state) {
    bool hit = EvalRpqPair(snap, nfa, 0, static_cast<NodeId>(n - 1));
    benchmark::DoNotOptimize(hit);
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_SinglePair_GraphScaling)
    ->RangeMultiplier(2)
    ->Range(64, 4096)
    ->Complexity();

void BM_AutomatonScaling(benchmark::State& state) {
  const size_t qi = static_cast<size_t>(state.range(0));
  EdgeLabeledGraph g = RandomGraph(512, 2048, 3, /*seed=*/11);
  GraphSnapshot snap(g);
  Nfa nfa = Nfa::FromRegex(
      *ParseRegex(kQueries[qi], RegexDialect::kPlain).ValueOrDie(), g);
  for (auto _ : state) {
    auto pairs = EvalRpq(snap, nfa);
    benchmark::DoNotOptimize(pairs);
  }
  state.counters["nfa_states"] = static_cast<double>(nfa.num_states());
  state.SetLabel(kQueries[qi]);
}
BENCHMARK(BM_AutomatonScaling)->DenseRange(0, 4, 1);

void BM_MaterializedProductConstruction(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  EdgeLabeledGraph g = RandomGraph(n, 4 * n, 3, /*seed=*/11);
  GraphSnapshot snap(g);
  Nfa nfa = Nfa::FromRegex(
      *ParseRegex("(a|b)* a (a|b)", RegexDialect::kPlain).ValueOrDie(), g);
  size_t arcs = 0;
  for (auto _ : state) {
    ProductGraph product(snap, nfa);
    arcs = product.NumArcs();
    benchmark::DoNotOptimize(product);
  }
  state.counters["product_arcs"] = static_cast<double>(arcs);
}
BENCHMARK(BM_MaterializedProductConstruction)
    ->RangeMultiplier(4)
    ->Range(64, 4096);

}  // namespace
}  // namespace gqzoo

int main(int argc, char** argv) {
  printf("E10: product-graph RPQ evaluation (Section 6.2) — polynomial "
         "scaling in |G| and |N_R|.\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
