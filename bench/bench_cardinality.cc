// E17 (Section 7.1, "Relational Algebra over Pattern Matching"): the paper
// calls cardinality estimation for (C)RPQs a non-trivial open question.
// This bench measures the two baseline estimators against exact counts:
// estimation error (q-error) and cost, across graph sizes and queries.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>

#include "src/graph/generators.h"
#include "src/regex/parser.h"
#include "src/planner/cardinality.h"
#include "src/rpq/rpq_eval.h"

namespace gqzoo {
namespace {

const char* kQueries[] = {"a", "a b", "(a|b) a", "a*", "a b*"};

double QError(double estimate, double exact) {
  if (estimate <= 0 || exact <= 0) return estimate == exact ? 1.0 : 1e9;
  return std::max(estimate / exact, exact / estimate);
}

void BM_SynopsisEstimate(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t qi = static_cast<size_t>(state.range(1));
  EdgeLabeledGraph g = RandomGraph(n, 4 * n, 2, /*seed=*/41);
  GraphSnapshot snap(g);
  SnapshotStats stats(snap);
  Nfa nfa = Nfa::FromRegex(
      *ParseRegex(kQueries[qi], RegexDialect::kPlain).ValueOrDie(), g);
  double estimate = 0;
  for (auto _ : state) {
    estimate = EstimateRpqCardinalitySynopsis(stats, nfa);
    benchmark::DoNotOptimize(estimate);
  }
  double exact = static_cast<double>(EvalRpq(snap, nfa).size());
  state.counters["estimate"] = estimate;
  state.counters["exact"] = exact;
  state.counters["q_error"] = QError(estimate, exact);
  state.SetLabel(kQueries[qi]);
}
BENCHMARK(BM_SynopsisEstimate)
    ->ArgsProduct({{256, 1024}, {0, 1, 2, 3, 4}});

void BM_SamplingEstimate(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t samples = static_cast<size_t>(state.range(1));
  EdgeLabeledGraph g = RandomGraph(n, 4 * n, 2, /*seed=*/41);
  GraphSnapshot snap(g);
  Nfa nfa = Nfa::FromRegex(
      *ParseRegex("a b", RegexDialect::kPlain).ValueOrDie(), g);
  double estimate = 0;
  uint64_t seed = 1;
  for (auto _ : state) {
    estimate = EstimateRpqCardinalitySampling(snap, nfa, samples, seed++);
    benchmark::DoNotOptimize(estimate);
  }
  double exact = static_cast<double>(EvalRpq(snap, nfa).size());
  state.counters["estimate"] = estimate;
  state.counters["exact"] = exact;
  state.counters["q_error"] = QError(estimate, exact);
}
BENCHMARK(BM_SamplingEstimate)
    ->ArgsProduct({{256, 1024}, {4, 16, 64}});

void BM_ExactCountForReference(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  EdgeLabeledGraph g = RandomGraph(n, 4 * n, 2, /*seed=*/41);
  GraphSnapshot snap(g);
  Nfa nfa = Nfa::FromRegex(
      *ParseRegex("a b", RegexDialect::kPlain).ValueOrDie(), g);
  for (auto _ : state) {
    auto pairs = EvalRpq(snap, nfa);
    benchmark::DoNotOptimize(pairs);
  }
}
BENCHMARK(BM_ExactCountForReference)->Arg(256)->Arg(1024);

}  // namespace
}  // namespace gqzoo

int main(int argc, char** argv) {
  printf("E17: RPQ cardinality estimation (Section 7.1 open direction) — "
         "synopsis (independence) vs sampling vs exact.\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
