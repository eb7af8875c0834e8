// E13 (Section 6.4, "Path Variables"): output-sensitive evaluation. A PMR
// is built once (polynomial preprocessing) and then results stream with
// output-linear delay — constant-delay is impossible because paths grow.
// We measure (a) preprocessing cost, (b) delay per emitted path at several
// result-set prefixes, and (c) the cost of full materialization.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "src/graph/generators.h"
#include "src/pmr/build.h"
#include "src/pmr/enumerate.h"
#include "src/regex/parser.h"

namespace gqzoo {
namespace {

Pmr BuildBenchPmr(const GraphSnapshot& snap) {
  const EdgeLabeledGraph& g = snap.graph();
  Nfa nfa = Nfa::FromRegex(
      *ParseRegex("(a^z)*", RegexDialect::kPlain).ValueOrDie(), g);
  return BuildPmrBetween(snap, nfa, *g.FindNode("s"), *g.FindNode("t"));
}

void BM_Preprocess_BuildAndTrim(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  EdgeLabeledGraph g = ParallelChain(n);
  GraphSnapshot snap(g);
  for (auto _ : state) {
    Pmr pmr = BuildBenchPmr(snap);
    benchmark::DoNotOptimize(pmr);
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_Preprocess_BuildAndTrim)
    ->RangeMultiplier(4)
    ->Range(16, 4096)
    ->Complexity();

void BM_EnumerateFirstK(benchmark::State& state) {
  const size_t n = 64;
  const size_t k = static_cast<size_t>(state.range(0));
  EdgeLabeledGraph g = ParallelChain(n);
  GraphSnapshot snap(g);
  Pmr pmr = BuildBenchPmr(snap);
  EnumerationLimits limits;
  limits.max_results = k;
  size_t emitted = 0;
  for (auto _ : state) {
    emitted = 0;
    EnumeratePathBindings(pmr, limits, [&emitted](const PathBinding&) {
      ++emitted;
      return true;
    });
  }
  state.counters["emitted"] = static_cast<double>(emitted);
  // time / emitted ≈ delay; with output-linear delay this stays ~constant
  // per path for fixed path length.
  state.counters["per_path_ns"] = benchmark::Counter(
      static_cast<double>(emitted),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_EnumerateFirstK)->RangeMultiplier(4)->Range(16, 16384);

void BM_FullMaterialization(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  EdgeLabeledGraph g = ParallelChain(n);
  GraphSnapshot snap(g);
  Pmr pmr = BuildBenchPmr(snap);
  size_t total = 0;
  for (auto _ : state) {
    std::vector<PathBinding> all =
        CollectPathBindings(pmr, EnumerationLimits{});
    total = all.size();
    benchmark::DoNotOptimize(all);
  }
  state.counters["paths"] = static_cast<double>(total);
}
BENCHMARK(BM_FullMaterialization)->DenseRange(4, 16, 4);

}  // namespace
}  // namespace gqzoo

int main(int argc, char** argv) {
  printf("E13: PMR-backed enumeration — polynomial preprocessing, "
         "output-linear delay, vs full materialization (Section 6.4).\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
