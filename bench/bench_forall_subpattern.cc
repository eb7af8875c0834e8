// E9 (Section 5.2, "Matching on Matched Paths"): the ∀π' ⇒ θ conditions
// advocated at the GQL committee. With the two-consecutive-edges
// subpattern, the check per path is linear; with the (u) →* (v)
// subpattern ("all property values along the path differ") the underlying
// query is NP-hard in data complexity — per-path checking is quadratic,
// and the number of candidate paths explodes.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "src/coregql/pattern_parser.h"
#include "src/graph/generators.h"
#include "src/lists/forall_subpattern.h"
#include "src/pmr/build.h"
#include "src/pmr/enumerate.h"
#include "src/regex/parser.h"

namespace gqzoo {
namespace {

std::vector<Path> CandidatePaths(const PropertyGraph& g, size_t max_len,
                                 size_t max_paths) {
  Nfa nfa = Nfa::FromRegex(
      *ParseRegex("_+", RegexDialect::kPlain).ValueOrDie(), g.skeleton());
  Pmr pmr = BuildPmr(GraphSnapshot(g), nfa, {}, {});
  EnumerationLimits limits;
  limits.max_length = max_len;
  limits.max_results = max_paths;
  std::vector<Path> paths;
  EnumeratePathBindings(pmr, limits, [&paths](const PathBinding& pb) {
    paths.push_back(pb.path);
    return true;
  });
  return paths;
}

void BM_SafeWindowCondition(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  PropertyGraph g = RandomPropertyGraph(n, 2 * n, 100, /*seed=*/5);
  std::vector<Path> paths = CandidatePaths(g, 6, 2000);
  CorePatternPtr sub = ParseCorePattern("()-[u]->()-[v]->()").ValueOrDie();
  CoreCondPtr cond = ParseCoreCondition("u.k < v.k").ValueOrDie();
  size_t kept = 0;
  for (auto _ : state) {
    Result<std::vector<Path>> out =
        FilterForAllSubpattern(g, paths, *sub, *cond);
    kept = out.value().size();
    benchmark::DoNotOptimize(out);
  }
  state.counters["candidates"] = static_cast<double>(paths.size());
  state.counters["kept"] = static_cast<double>(kept);
}
BENCHMARK(BM_SafeWindowCondition)->RangeMultiplier(2)->Range(8, 64);

void BM_AllDistinctCondition(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  PropertyGraph g = RandomPropertyGraph(n, 2 * n, 4, /*seed=*/5);
  std::vector<Path> paths = CandidatePaths(g, 6, 2000);
  CorePatternPtr sub = ParseCorePattern("(u) ->+ (v)").ValueOrDie();
  CoreCondPtr cond = ParseCoreCondition("u.k != v.k").ValueOrDie();
  size_t kept = 0;
  for (auto _ : state) {
    Result<std::vector<Path>> out =
        FilterForAllSubpattern(g, paths, *sub, *cond);
    kept = out.value().size();
    benchmark::DoNotOptimize(out);
  }
  state.counters["candidates"] = static_cast<double>(paths.size());
  state.counters["kept"] = static_cast<double>(kept);
}
BENCHMARK(BM_AllDistinctCondition)->RangeMultiplier(2)->Range(8, 64);

}  // namespace
}  // namespace gqzoo

int main(int argc, char** argv) {
  printf("E9: forall-subpattern conditions — the safe two-edge window vs "
         "the NP-hard all-distinct variant (paper, Section 5.2).\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
