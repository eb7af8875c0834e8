// E3 (Figure 5 + Section 6.3): the graph with 2^n s→t paths. The paper's
// claim: the output of `q(z) := shortest (a^z)*(s, t)` consists of
// 2^Θ(n) lists, while a PMR represents all of them in O(n) space. The
// benchmark series shows enumeration cost growing exponentially while the
// PMR construction stays linear.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "src/graph/generators.h"
#include "src/pmr/build.h"
#include "src/pmr/enumerate.h"
#include "src/regex/parser.h"

namespace gqzoo {
namespace {

Nfa AStarNfa(const EdgeLabeledGraph& g) {
  return Nfa::FromRegex(
      *ParseRegex("(a^z)*", RegexDialect::kPlain).ValueOrDie(), g);
}

void BM_Fig5_BuildPmr(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  EdgeLabeledGraph g = ParallelChain(n);
  GraphSnapshot snap(g);
  Nfa nfa = AStarNfa(g);
  NodeId s = *g.FindNode("s");
  NodeId t = *g.FindNode("t");
  size_t pmr_nodes = 0, pmr_edges = 0;
  for (auto _ : state) {
    Pmr pmr = BuildPmrBetween(snap, nfa, s, t);
    pmr_nodes = pmr.NumNodes();
    pmr_edges = pmr.NumEdges();
    benchmark::DoNotOptimize(pmr);
  }
  state.counters["pmr_nodes"] = static_cast<double>(pmr_nodes);
  state.counters["pmr_edges"] = static_cast<double>(pmr_edges);
  state.counters["paths_represented"] =
      static_cast<double>(uint64_t{1} << n);
}
BENCHMARK(BM_Fig5_BuildPmr)->DenseRange(4, 24, 4);

void BM_Fig5_CountWalks(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  EdgeLabeledGraph g = ParallelChain(n);
  GraphSnapshot snap(g);
  Nfa nfa = AStarNfa(g);
  Pmr pmr = BuildPmrBetween(snap, nfa, *g.FindNode("s"), *g.FindNode("t"));
  std::string count;
  for (auto _ : state) {
    count = CountPmrWalks(pmr)->ToString();
    benchmark::DoNotOptimize(count);
  }
  state.SetLabel("2^" + std::to_string(n) + " = " + count);
}
BENCHMARK(BM_Fig5_CountWalks)->DenseRange(4, 24, 4);

void BM_Fig5_EnumerateAll(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  EdgeLabeledGraph g = ParallelChain(n);
  GraphSnapshot snap(g);
  Nfa nfa = AStarNfa(g);
  Pmr pmr = BuildPmrBetween(snap, nfa, *g.FindNode("s"), *g.FindNode("t"));
  size_t results = 0;
  for (auto _ : state) {
    results = 0;
    EnumeratePathBindings(pmr, EnumerationLimits{},
                          [&results](const PathBinding&) {
                            ++results;
                            return true;
                          });
  }
  state.counters["paths"] = static_cast<double>(results);
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_Fig5_EnumerateAll)->DenseRange(4, 18, 2);

}  // namespace
}  // namespace gqzoo

int main(int argc, char** argv) {
  {
    using namespace gqzoo;
    printf("E3 / Figure 5: n-diamond chains; PMR size vs represented "
           "paths.\n");
    printf("%4s %12s %12s %20s\n", "n", "pmr_nodes", "pmr_edges", "paths");
    for (size_t n = 4; n <= 24; n += 4) {
      EdgeLabeledGraph g = ParallelChain(n);
      GraphSnapshot snap(g);
      Nfa nfa = Nfa::FromRegex(
          *ParseRegex("(a^z)*", RegexDialect::kPlain).ValueOrDie(), g);
      Pmr pmr = BuildPmrBetween(snap, nfa, *g.FindNode("s"), *g.FindNode("t"));
      printf("%4zu %12zu %12zu %20s\n", n, pmr.NumNodes(), pmr.NumEdges(),
             CountPmrWalks(pmr)->ToString().c_str());
    }
    printf("(paper: 2^Theta(n) lists, O(n) PMR — shapes must match)\n\n");
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
