// E11 (Section 6.2): "If we want to count the number of matching paths, it
// is important that N_R is unambiguous." Run counting with an ambiguous
// automaton overcounts; determinizing restores path counts at some state
// blow-up cost. (The paper also cites the SPARQL-log study [62]: real
// queries rarely need a larger unambiguous automaton.)

#include <benchmark/benchmark.h>

#include <cstdio>

#include "src/automata/counting.h"
#include "src/automata/operations.h"
#include "src/graph/generators.h"
#include "src/regex/parser.h"

namespace gqzoo {
namespace {

void BM_CountWithUnambiguous(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  EdgeLabeledGraph g = ParallelChain(n);
  GraphSnapshot snap(g);
  Nfa nfa = Nfa::FromRegex(
      *ParseRegex("a*", RegexDialect::kPlain).ValueOrDie(), g);
  std::string count;
  for (auto _ : state) {
    BigUint c = CountRunsOnPaths(snap, nfa, *g.FindNode("s"), *g.FindNode("t"),
                                 n + 2);
    count = c.ToString();
    benchmark::DoNotOptimize(c);
  }
  state.SetLabel("paths = " + count);
}
BENCHMARK(BM_CountWithUnambiguous)->DenseRange(8, 32, 8);

void BM_CountWithAmbiguous(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  EdgeLabeledGraph g = ParallelChain(n);
  GraphSnapshot snap(g);
  Nfa nfa = Nfa::FromRegex(
      *ParseRegex("a* a* a*", RegexDialect::kPlain).ValueOrDie(), g);
  std::string count;
  for (auto _ : state) {
    BigUint c = CountRunsOnPaths(snap, nfa, *g.FindNode("s"), *g.FindNode("t"),
                                 n + 2);
    count = c.ToString();
    benchmark::DoNotOptimize(c);
  }
  state.SetLabel("runs  = " + count + " (overcounted)");
}
BENCHMARK(BM_CountWithAmbiguous)->DenseRange(8, 32, 8);

void BM_DisambiguateByDeterminization(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  EdgeLabeledGraph g = ParallelChain(n);
  GraphSnapshot snap(g);
  Nfa ambiguous = Nfa::FromRegex(
      *ParseRegex("a* a* a*", RegexDialect::kPlain).ValueOrDie(), g);
  std::string count;
  size_t dfa_states = 0;
  for (auto _ : state) {
    Nfa dfa = Determinize(ambiguous);
    dfa_states = dfa.num_states();
    BigUint c = CountRunsOnPaths(snap, dfa, *g.FindNode("s"), *g.FindNode("t"),
                                 n + 2);
    count = c.ToString();
    benchmark::DoNotOptimize(c);
  }
  state.counters["dfa_states"] = static_cast<double>(dfa_states);
  state.SetLabel("paths = " + count);
}
BENCHMARK(BM_DisambiguateByDeterminization)->DenseRange(8, 32, 8);

void BM_AmbiguityCheck(benchmark::State& state) {
  const size_t qi = static_cast<size_t>(state.range(0));
  const char* queries[] = {"a*", "a* a*", "(a|b)* a (a|b)*", "(a b)* (b a)?"};
  EdgeLabeledGraph g = Clique(2);
  g.InternLabel("b");
  Nfa nfa = Nfa::FromRegex(
      *ParseRegex(queries[qi], RegexDialect::kPlain).ValueOrDie(), g);
  bool ambiguous = false;
  for (auto _ : state) {
    ambiguous = IsAmbiguous(nfa);
    benchmark::DoNotOptimize(ambiguous);
  }
  state.SetLabel(std::string(queries[qi]) +
                 (ambiguous ? " [ambiguous]" : " [unambiguous]"));
}
BENCHMARK(BM_AmbiguityCheck)->DenseRange(0, 3, 1);

}  // namespace
}  // namespace gqzoo

int main(int argc, char** argv) {
  {
    using namespace gqzoo;
    EdgeLabeledGraph g = ParallelChain(8);
    GraphSnapshot snap(g);
    Nfa plain = Nfa::FromRegex(
        *ParseRegex("a*", RegexDialect::kPlain).ValueOrDie(), g);
    Nfa amb = Nfa::FromRegex(
        *ParseRegex("a* a* a*", RegexDialect::kPlain).ValueOrDie(), g);
    printf("E11: path counting needs unambiguity (Section 6.2).\n");
    printf("ParallelChain(8): true path count 2^8 = 256\n");
    printf("  a*        (unambiguous: %s) counts %s\n",
           IsAmbiguous(plain) ? "no" : "yes",
           CountRunsOnPaths(snap, plain, 0, 8, 10).ToString().c_str());
    printf("  a* a* a*  (unambiguous: %s) counts %s\n",
           IsAmbiguous(amb) ? "no" : "yes",
           CountRunsOnPaths(snap, amb, 0, 8, 10).ToString().c_str());
    printf("  after determinization:     counts %s\n\n",
           CountRunsOnPaths(snap, Determinize(amb), 0, 8, 10)
               .ToString()
               .c_str());
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
