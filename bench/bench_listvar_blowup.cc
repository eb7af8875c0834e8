// E4 (Section 6.3): the l-RPQ (a a^z | a^z a)* binds z to 2^n different
// lists on a single path of 2n a-edges — exponentially many outputs on
// *one* matched path. We count distinct bindings by enumeration (small n)
// and count accepting runs via the PMR (large n).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <set>

#include "src/graph/generators.h"
#include "src/pmr/build.h"
#include "src/pmr/enumerate.h"
#include "src/regex/parser.h"

namespace gqzoo {
namespace {

Nfa BlowupNfa(const EdgeLabeledGraph& g) {
  return Nfa::FromRegex(
      *ParseRegex("(a a^z | a^z a)*", RegexDialect::kPlain).ValueOrDie(), g);
}

void BM_ListVarBlowup_DistinctBindings(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  EdgeLabeledGraph g = Chain(2 * n);
  GraphSnapshot snap(g);
  Nfa nfa = BlowupNfa(g);
  NodeId u = *g.FindNode("u1");
  NodeId v = *g.FindNode("u" + std::to_string(2 * n + 1));
  size_t bindings = 0;
  for (auto _ : state) {
    Pmr pmr = BuildPmrBetween(snap, nfa, u, v);
    std::set<Binding> distinct;
    EnumeratePathBindings(pmr, EnumerationLimits{},
                          [&distinct](const PathBinding& pb) {
                            distinct.insert(pb.mu);
                            return true;
                          });
    bindings = distinct.size();
  }
  state.counters["distinct_z_lists"] = static_cast<double>(bindings);
  state.counters["expected_2^n"] = static_cast<double>(uint64_t{1} << n);
}
BENCHMARK(BM_ListVarBlowup_DistinctBindings)->DenseRange(2, 14, 2);

void BM_ListVarBlowup_CountRuns(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  EdgeLabeledGraph g = Chain(2 * n);
  GraphSnapshot snap(g);
  Nfa nfa = BlowupNfa(g);
  NodeId u = *g.FindNode("u1");
  NodeId v = *g.FindNode("u" + std::to_string(2 * n + 1));
  std::string count;
  for (auto _ : state) {
    Pmr pmr = BuildPmrBetween(snap, nfa, u, v);
    count = CountPmrWalks(pmr)->ToString();
  }
  state.SetLabel("runs = " + count);
}
BENCHMARK(BM_ListVarBlowup_CountRuns)->DenseRange(8, 64, 8);

}  // namespace
}  // namespace gqzoo

int main(int argc, char** argv) {
  {
    using namespace gqzoo;
    printf("E4: (a a^z | a^z a)* on the 2n-edge path — distinct z-lists.\n");
    printf("%4s %20s %20s\n", "n", "distinct z-lists", "paper (2^n)");
    for (size_t n = 2; n <= 12; n += 2) {
      EdgeLabeledGraph g = Chain(2 * n);
      GraphSnapshot snap(g);
      Nfa nfa = Nfa::FromRegex(
          *ParseRegex("(a a^z | a^z a)*", RegexDialect::kPlain).ValueOrDie(),
          g);
      Pmr pmr = BuildPmrBetween(snap, nfa, *g.FindNode("u1"),
          *g.FindNode("u" + std::to_string(2 * n + 1)));
      std::set<Binding> distinct;
      EnumeratePathBindings(pmr, EnumerationLimits{},
                            [&distinct](const PathBinding& pb) {
                              distinct.insert(pb.mu);
                              return true;
                            });
      printf("%4zu %20zu %20llu\n", n, distinct.size(),
             static_cast<unsigned long long>(uint64_t{1} << n));
    }
    printf("\n");
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
