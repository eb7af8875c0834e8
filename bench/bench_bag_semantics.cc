// E5 (Section 6.1): bag semantics + Kleene star = blow-up. The paper's
// claim: evaluating (((a*)*)*)* on a 6-clique under the 2012 SPARQL draft
// semantics "gave more answers than the number of protons in the
// observable universe" (~10^80), while the automata view rewrites the
// expression to a* and returns 36 set answers.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "src/automata/operations.h"
#include "src/graph/generators.h"
#include "src/regex/parser.h"
#include "src/rpq/bag_semantics.h"
#include "src/rpq/rpq_eval.h"

namespace gqzoo {
namespace {

RegexPtr NestedStar(size_t depth) {
  RegexPtr r = ParseRegex("a", RegexDialect::kPlain).ValueOrDie();
  for (size_t i = 0; i < depth; ++i) r = Regex::Star(r);
  return r;
}

void BM_BagCount(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const size_t depth = static_cast<size_t>(state.range(1));
  EdgeLabeledGraph g = Clique(k);
  GraphSnapshot snap(g);
  RegexPtr regex = NestedStar(depth);
  size_t digits = 0;
  for (auto _ : state) {
    BigUint total = BagCountTotal(*regex, snap);
    digits = total.NumDecimalDigits();
    benchmark::DoNotOptimize(total);
  }
  state.counters["decimal_digits"] = static_cast<double>(digits);
}
BENCHMARK(BM_BagCount)
    ->ArgsProduct({{2, 3, 4, 5, 6}, {1, 2, 3, 4}});

void BM_SetSemanticsViaAutomata(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  EdgeLabeledGraph g = Clique(k);
  GraphSnapshot snap(g);
  RegexPtr regex = NestedStar(4);
  Nfa nfa = Nfa::FromRegex(*regex, g);
  size_t answers = 0;
  for (auto _ : state) {
    auto pairs = EvalRpq(snap, nfa);
    answers = pairs.size();
    benchmark::DoNotOptimize(pairs);
  }
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_SetSemanticsViaAutomata)->DenseRange(2, 6, 1);

}  // namespace
}  // namespace gqzoo

int main(int argc, char** argv) {
  {
    using namespace gqzoo;
    printf("E5 / Section 6.1: (((a*)*)*)* on k-cliques.\n");
    printf("%3s %14s %45s\n", "k", "set answers", "bag multiplicity (digits)");
    for (size_t k = 2; k <= 6; ++k) {
      EdgeLabeledGraph g = Clique(k);
      GraphSnapshot snap(g);
      RegexPtr regex =
          ParseRegex("(((a*)*)*)*", RegexDialect::kPlain).ValueOrDie();
      auto pairs = EvalRpq(snap, Nfa::FromRegex(*regex, g));
      BigUint total = BagCountTotal(*regex, snap);
      std::string digits = std::to_string(total.NumDecimalDigits());
      std::string shown = total.NumDecimalDigits() <= 40
                              ? total.ToString()
                              : total.ToString().substr(0, 20) + "... (" +
                                    digits + " digits)";
      printf("%3zu %14zu %45s\n", k, pairs.size(), shown.c_str());
    }
    EdgeLabeledGraph g6 = Clique(6);
    GraphSnapshot snap(g6);
    BigUint total = BagCountTotal(
        *ParseRegex("(((a*)*)*)*", RegexDialect::kPlain).ValueOrDie(), snap);
    printf("K6 bag multiplicity has %zu decimal digits; protons in the "
           "observable universe ~ 10^80 -> claim %s\n",
           total.NumDecimalDigits(),
           total > BigUint::PowerOfTen(80) ? "REPRODUCED" : "NOT reproduced");
    // And the rewriting story: (((a*)*)*)* ≡ a*.
    EdgeLabeledGraph alphabet = Clique(2);
    bool equivalent = AreEquivalent(
        Nfa::FromRegex(
            *ParseRegex("(((a*)*)*)*", RegexDialect::kPlain).ValueOrDie(),
            alphabet),
        Nfa::FromRegex(*ParseRegex("a*", RegexDialect::kPlain).ValueOrDie(),
                       alphabet));
    printf("automata check (((a*)*)*)* == a*: %s\n\n",
           equivalent ? "yes" : "no");
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
