// E18 (ablation; Sections 6.1-6.2): the automata-compatible design lets a
// query compiler rewrite expressions before evaluation — "(((a*)*)*)* can
// be equivalently rewritten to a*". This bench measures the rewriter
// itself, and the downstream effect on automaton size and evaluation time
// for bloated-but-equivalent queries.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "src/graph/generators.h"
#include "src/regex/parser.h"
#include "src/regex/printer.h"
#include "src/regex/rewrite.h"
#include "src/rpq/rpq_eval.h"

namespace gqzoo {
namespace {

// Equivalent pairs: pathological formulation vs what the rewriter yields.
const char* kBloated[] = {
    "(((a*)*)*)*",
    "((a|a)|(a|a)) ((b?)?)* ((a+)+)?",
    "(eps|a)(eps|a)(eps|a)(eps|a)",
    "((a*)* (a*)*)*",
};

void BM_SimplifyRegex(benchmark::State& state) {
  RegexPtr r = ParseRegex(kBloated[state.range(0)], RegexDialect::kPlain)
                   .ValueOrDie();
  RegexPtr out;
  for (auto _ : state) {
    out = SimplifyRegex(r);
    benchmark::DoNotOptimize(out);
  }
  state.counters["size_before"] = static_cast<double>(RegexSize(*r));
  state.counters["size_after"] = static_cast<double>(RegexSize(*out));
  state.SetLabel(RegexToString(*out, RegexDialect::kPlain));
}
BENCHMARK(BM_SimplifyRegex)->DenseRange(0, 3, 1);

void EvalCase(benchmark::State& state, bool simplified) {
  RegexPtr r = ParseRegex(kBloated[state.range(0)], RegexDialect::kPlain)
                   .ValueOrDie();
  if (simplified) r = SimplifyRegex(r);
  EdgeLabeledGraph g = RandomGraph(512, 2048, 2, /*seed=*/13);
  GraphSnapshot snap(g);
  Nfa nfa = Nfa::FromRegex(*r, g);
  size_t answers = 0;
  for (auto _ : state) {
    auto pairs = EvalRpq(snap, nfa);
    answers = pairs.size();
    benchmark::DoNotOptimize(pairs);
  }
  state.counters["nfa_states"] = static_cast<double>(nfa.num_states());
  state.counters["nfa_transitions"] =
      static_cast<double>(nfa.NumTransitions());
  state.counters["answers"] = static_cast<double>(answers);
}

void BM_EvalBloated(benchmark::State& state) { EvalCase(state, false); }
BENCHMARK(BM_EvalBloated)->DenseRange(0, 3, 1);

void BM_EvalSimplified(benchmark::State& state) { EvalCase(state, true); }
BENCHMARK(BM_EvalSimplified)->DenseRange(0, 3, 1);

}  // namespace
}  // namespace gqzoo

int main(int argc, char** argv) {
  {
    using namespace gqzoo;
    printf("E18 (ablation): regex rewriting before evaluation.\n");
    for (const char* text : kBloated) {
      RegexPtr r = ParseRegex(text, RegexDialect::kPlain).ValueOrDie();
      RegexPtr s = SimplifyRegex(r);
      printf("  %-38s ->  %s   (size %zu -> %zu)\n", text,
             RegexToString(*s, RegexDialect::kPlain).c_str(), RegexSize(*r),
             RegexSize(*s));
    }
    printf("\n");
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
