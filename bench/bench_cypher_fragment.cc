// E16 (Section 5.1, Proposition 22): the Cypher fragment cannot express
// (ℓℓ)*. We enumerate all unary languages the fragment can denote up to a
// given pattern size and verify that the even-length language never
// appears; the invariant behind the proof — every infinite fragment
// language is upward closed — is checked along the way. The timing series
// measures the exhaustive search itself plus fragment evaluation cost.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "src/coregql/pattern_eval.h"
#include "src/cypher/cypher_fragment.h"
#include "src/graph/generators.h"
#include "src/graph/graph_io.h"
#include "src/rpq/rpq_eval.h"
#include "src/regex/parser.h"

namespace gqzoo {
namespace {

void BM_EnumerateFragmentLanguages(benchmark::State& state) {
  const size_t max_atoms = static_cast<size_t>(state.range(0));
  size_t languages = 0;
  bool found_evens = false;
  for (auto _ : state) {
    std::vector<UnaryLanguage> langs =
        EnumerateFragmentUnaryLanguages(max_atoms);
    languages = langs.size();
    for (const UnaryLanguage& l : langs) {
      if (!l.IsInfinite()) continue;
      bool evens = true;
      for (size_t i = 0; i < 16; ++i) {
        if (l.Contains(i) != (i % 2 == 0)) {
          evens = false;
          break;
        }
      }
      found_evens = found_evens || evens;
    }
  }
  state.counters["distinct_languages"] = static_cast<double>(languages);
  state.counters["even_language_found"] = found_evens ? 1 : 0;  // must be 0
}
BENCHMARK(BM_EnumerateFragmentLanguages)->DenseRange(3, 11, 2);

void BM_FragmentEvaluation(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  PropertyGraph g = ToPropertyGraph(RandomGraph(n, 4 * n, 2, /*seed=*/31));
  GraphSnapshot snap(g);
  CypherPatternPtr p =
      ParseCypherPattern("(x) -[:a*]-> () -[:b]-> (y)").ValueOrDie();
  CorePatternPtr core = p->ToCorePattern();
  size_t answers = 0;
  for (auto _ : state) {
    Result<std::vector<CorePairRow>> rows = EvalPatternPairs(g, *core, snap);
    answers = rows.value().size();
    benchmark::DoNotOptimize(rows);
  }
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_FragmentEvaluation)->RangeMultiplier(4)->Range(64, 1024);

void BM_FullRpqForComparison(benchmark::State& state) {
  // The (aa)* query the fragment cannot express, evaluated by the RPQ
  // machinery — cheap and easy once patterns are automata-compatible.
  const size_t n = static_cast<size_t>(state.range(0));
  EdgeLabeledGraph g = RandomGraph(n, 4 * n, 2, /*seed=*/31);
  GraphSnapshot snap(g);
  Nfa nfa = Nfa::FromRegex(
      *ParseRegex("(a a)*", RegexDialect::kPlain).ValueOrDie(), g);
  size_t answers = 0;
  for (auto _ : state) {
    auto pairs = EvalRpq(snap, nfa);
    answers = pairs.size();
    benchmark::DoNotOptimize(pairs);
  }
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_FullRpqForComparison)->RangeMultiplier(4)->Range(64, 1024);

}  // namespace
}  // namespace gqzoo

int main(int argc, char** argv) {
  {
    using namespace gqzoo;
    printf("E16 / Proposition 22: exhaustive fragment language search.\n");
    printf("%6s %20s %22s\n", "atoms", "distinct languages",
           "(ll)* expressible?");
    for (size_t k = 3; k <= 11; k += 2) {
      std::vector<UnaryLanguage> langs = EnumerateFragmentUnaryLanguages(k);
      bool found = false;
      for (const UnaryLanguage& l : langs) {
        if (!l.IsInfinite()) continue;
        bool evens = true;
        for (size_t i = 0; i < 16; ++i) {
          if (l.Contains(i) != (i % 2 == 0)) {
            evens = false;
            break;
          }
        }
        found = found || evens;
      }
      printf("%6zu %20zu %22s\n", k, langs.size(), found ? "YES?!" : "no");
    }
    printf("(paper: not expressible — every row must say 'no')\n\n");
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
