// E7 (Section 5.2 + Example 21): the increasing-edge-values query, three
// ways:
//   (1) dl-RPQ with registers — a single product-space search, made
//       possible by the symmetric node/edge treatment;
//   (2) the GQL workaround: all paths EXCEPT the paths with a violating
//       adjacent edge pair — compositional difference over enumerated path
//       sets, "which might lead to poor performance, which is indeed
//       observed in practice" (the paper's words);
//   (3) the Cypher list workaround via reduce.
// Workload: chains with increasing edge values plus a few dips.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "src/coregql/query.h"
#include "src/datatest/dl_eval.h"
#include "src/graph/generators.h"
#include "src/lists/list_functions.h"
#include "src/regex/parser.h"

namespace gqzoo {
namespace {

constexpr const char* kDlIncreasing =
    "()[a][x := k]( (_)[a][k > x][x := k] )*()";

size_t DlAnswerCount(const PropertyGraph& g) {
  DlNfa nfa = DlNfa::FromRegex(
      *ParseRegex(kDlIncreasing, RegexDialect::kDl).ValueOrDie(), g);
  GraphSnapshot snap(g);
  DlEvaluator evaluator(g, nfa, &snap);
  return evaluator.AllPairs().size();
}

size_t ExceptAnswerCount(const PropertyGraph& g, size_t max_len,
                         bool* truncated) {
  CoreQueryEvalOptions options;
  options.path_options.max_path_length = max_len;
  // Bound the memory of the compositional evaluation; larger instances
  // truncate (and report it), which is itself the E7 story.
  options.path_options.max_results = 50000;
  Result<CoreQueryResult> r = RunCoreGql(
      g,
      "MATCH p = (s) ->+ (t) RETURN p "
      "EXCEPT "
      "MATCH p = (s) ->* ( ( ()-[u]->()-[v]->() ) WHERE u.k >= v.k ) ->* (t) "
      "RETURN p",
      options);
  if (!r.ok()) return 0;
  *truncated = *truncated || r.value().truncated;
  return r.value().relation.NumRows();
}

void BM_DlRegisterSearch(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  PropertyGraph g = IncreasingEdgeChain(n, n / 8, /*seed=*/3);
  size_t answers = 0;
  for (auto _ : state) {
    answers = DlAnswerCount(g);
    benchmark::DoNotOptimize(answers);
  }
  state.counters["answer_pairs"] = static_cast<double>(answers);
}
BENCHMARK(BM_DlRegisterSearch)->RangeMultiplier(2)->Range(8, 256);

void BM_ExceptComplement(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  PropertyGraph g = IncreasingEdgeChain(n, n / 8, /*seed=*/3);
  size_t answers = 0;
  bool truncated = false;
  for (auto _ : state) {
    answers = ExceptAnswerCount(g, n + 1, &truncated);
    benchmark::DoNotOptimize(answers);
  }
  state.counters["answer_paths"] = static_cast<double>(answers);
  state.counters["truncated"] = truncated ? 1 : 0;
}
BENCHMARK(BM_ExceptComplement)->RangeMultiplier(2)->Range(8, 128);

void BM_ReduceWorkaround(benchmark::State& state) {
  // Same answer as the dl-RPQ: all endpoint pairs with an increasing-edge
  // path witness. The reduce formulation has no product structure to lean
  // on, so it enumerates per pair.
  const size_t n = static_cast<size_t>(state.range(0));
  PropertyGraph g = IncreasingEdgeChain(n, n / 8, /*seed=*/3);
  auto ge0 = [](const Value& v) {
    return v.is_numeric() && v.ToDouble() >= 0;
  };
  ReduceQueryOptions options;
  options.max_results = 1;  // existence per pair
  size_t answers = 0;
  for (auto _ : state) {
    answers = 0;
    for (NodeId u = 0; u < g.NumNodes(); ++u) {
      for (NodeId v = 0; v < g.NumNodes(); ++v) {
        std::vector<Path> witness = PathsWithReducePredicate(
            g, u, v, Value(0), PropertyIota(g, "k"), IncreasingStep(g, "k"),
            ge0, options);
        // The dl query requires at least one edge; drop the empty witness
        // (on a chain no nonempty u→u path exists, so nothing is missed).
        if (!witness.empty() && witness[0].Length() > 0) ++answers;
      }
    }
    benchmark::DoNotOptimize(answers);
  }
  state.counters["answer_pairs"] = static_cast<double>(answers);
}
BENCHMARK(BM_ReduceWorkaround)->RangeMultiplier(2)->Range(8, 256);

}  // namespace
}  // namespace gqzoo

int main(int argc, char** argv) {
  {
    using namespace gqzoo;
    printf("E7: increasing edge values, dl-RPQ vs EXCEPT vs reduce.\n");
    printf("The dl-RPQ is Example 21's expression: %s\n\n",
           gqzoo::kDlIncreasing);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
