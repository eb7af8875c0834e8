// E12 (Section 6.3, "Path Modes"): shortest stays polynomial (PMR-based),
// while simple/trail enumeration is NP-hard in the worst case — but
// practical on "well behaved" graphs, which is the PathFinder observation
// the paper cites. Adversarial workload: parallel chains (exponentially
// many trails); well-behaved workload: sparse random graphs.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "src/crpq/modes.h"
#include "src/rpq/rpq_eval.h"
#include "src/graph/generators.h"
#include "src/regex/parser.h"

namespace gqzoo {
namespace {

Nfa AStar(const EdgeLabeledGraph& g) {
  return Nfa::FromRegex(
      *ParseRegex("a*", RegexDialect::kPlain).ValueOrDie(), g);
}

void RunMode(benchmark::State& state, const EdgeLabeledGraph& g, NodeId u,
             NodeId v, PathMode mode, size_t cap) {
  GraphSnapshot snap(g);
  Nfa nfa = AStar(g);
  EnumerationLimits limits;
  limits.max_results = cap;
  limits.max_length = 64;
  size_t results = 0;
  bool truncated = false;
  for (auto _ : state) {
    EnumerationStats stats;
    auto paths = CollectModePaths(snap, nfa, u, v, mode, limits, &stats);
    results = paths.size();
    truncated = stats.truncated;
    benchmark::DoNotOptimize(paths);
  }
  state.counters["paths"] = static_cast<double>(results);
  state.counters["truncated"] = truncated ? 1 : 0;
}

void BM_Adversarial_Shortest(benchmark::State& state) {
  EdgeLabeledGraph g = ParallelChain(static_cast<size_t>(state.range(0)));
  // Shortest of the diamond chain: all 2^n paths are shortest; cap the
  // enumeration — the *search* is poly, the output is what explodes.
  RunMode(state, g, *g.FindNode("s"), *g.FindNode("t"), PathMode::kShortest,
          1000);
}
BENCHMARK(BM_Adversarial_Shortest)->DenseRange(4, 16, 4);

void BM_Adversarial_Trail(benchmark::State& state) {
  EdgeLabeledGraph g = ParallelChain(static_cast<size_t>(state.range(0)));
  RunMode(state, g, *g.FindNode("s"), *g.FindNode("t"), PathMode::kTrail,
          1000);
}
BENCHMARK(BM_Adversarial_Trail)->DenseRange(4, 16, 4);

void BM_Adversarial_Simple(benchmark::State& state) {
  EdgeLabeledGraph g = ParallelChain(static_cast<size_t>(state.range(0)));
  RunMode(state, g, *g.FindNode("s"), *g.FindNode("t"), PathMode::kSimple,
          1000);
}
BENCHMARK(BM_Adversarial_Simple)->DenseRange(4, 16, 4);

void BM_WellBehaved_Modes(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const PathMode mode = static_cast<PathMode>(state.range(1));
  EdgeLabeledGraph g = RandomGraph(n, n + n / 2, 1, /*seed=*/23);  // sparse
  GraphSnapshot snap(g);
  Nfa nfa = AStar(g);
  // Pick a target actually reachable from node 0 so the searches have
  // results to find (the PathFinder-style "well behaved" case).
  std::vector<NodeId> reachable = EvalRpqFrom(snap, nfa, 0);
  NodeId target = reachable.empty() ? 0 : reachable[reachable.size() / 2];
  EnumerationLimits limits;
  limits.max_results = 1000;
  limits.max_length = 16;
  size_t results = 0;
  for (auto _ : state) {
    auto paths = CollectModePaths(snap, nfa, 0, target, mode, limits);
    results = paths.size();
    benchmark::DoNotOptimize(paths);
  }
  state.counters["paths"] = static_cast<double>(results);
  state.SetLabel(PathModeName(mode));
}
BENCHMARK(BM_WellBehaved_Modes)
    ->ArgsProduct({{64, 256, 1024},
                   {static_cast<int>(PathMode::kShortest),
                    static_cast<int>(PathMode::kSimple),
                    static_cast<int>(PathMode::kTrail)}});

}  // namespace
}  // namespace gqzoo

int main(int argc, char** argv) {
  printf("E12: path modes — shortest (PMR, poly) vs simple/trail "
         "(backtracking, exponential worst case, fine on sparse graphs).\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
