// E2 (Figure 3 + Examples 16, 17): l-RPQ list-variable bindings and the
// shortest mode grouped by endpoint pairs. The paper's claims:
//   Example 16: (Transfer^z)* isBlocked yields µ(z) = list(), list(t3),
//               list(t2,t3), list(t5,t3), ... on Figure 2.
//   Example 17: shortest (Transfer^z)+ grouped per endpoint pair gives
//               Jay→Rebecca: list(t10) and Mike→Megan: list(t7,t4).

#include <benchmark/benchmark.h>

#include <cstdio>

#include "src/crpq/crpq_parser.h"
#include "src/crpq/eval.h"
#include "src/graph/builtin_graphs.h"
#include "src/pmr/build.h"
#include "src/pmr/enumerate.h"
#include "src/regex/parser.h"

namespace gqzoo {
namespace {

void BM_Example16_Enumerate(benchmark::State& state) {
  EdgeLabeledGraph g = Figure2Graph();
  GraphSnapshot snap(g);
  Nfa nfa = Nfa::FromRegex(
      *ParseRegex("(Transfer^z)* isBlocked", RegexDialect::kPlain)
           .ValueOrDie(),
      g);
  EnumerationLimits limits;
  limits.max_length = 12;
  size_t results = 0;
  for (auto _ : state) {
    Pmr pmr = BuildPmr(snap, nfa, {}, {});
    std::vector<PathBinding> bindings = CollectPathBindings(pmr, limits);
    results = bindings.size();
    benchmark::DoNotOptimize(bindings);
  }
  state.counters["bindings_len_le_12"] = static_cast<double>(results);
}
BENCHMARK(BM_Example16_Enumerate);

void BM_Example17_ShortestGrouped(benchmark::State& state) {
  EdgeLabeledGraph g = Figure2Graph();
  GraphSnapshot snap(g);
  Crpq q = ParseCrpq("q(x1, x2, z) := owner(y1, x1), owner(y2, x2), "
                     "shortest (Transfer^z)+ (y1, y2)")
               .ValueOrDie();
  size_t answers = 0;
  for (auto _ : state) {
    Result<CrpqResult> r = EvalCrpq(g, q, {.snapshot = &snap});
    answers = r.value().rows.size();
    benchmark::DoNotOptimize(r);
  }
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_Example17_ShortestGrouped);

void BM_Example17_PerPairPmr(benchmark::State& state) {
  EdgeLabeledGraph g = Figure2Graph();
  GraphSnapshot snap(g);
  Nfa nfa = Nfa::FromRegex(
      *ParseRegex("(Transfer^z)+", RegexDialect::kPlain).ValueOrDie(), g);
  NodeId a3 = *g.FindNode("a3");
  NodeId a1 = *g.FindNode("a1");
  for (auto _ : state) {
    Pmr pmr = BuildPmrBetween(snap, nfa, a3, a1).ShortestRestriction();
    auto bindings = CollectPathBindings(pmr, EnumerationLimits{});
    benchmark::DoNotOptimize(bindings);
  }
}
BENCHMARK(BM_Example17_PerPairPmr);

}  // namespace
}  // namespace gqzoo

int main(int argc, char** argv) {
  {
    using namespace gqzoo;
    EdgeLabeledGraph g = Figure2Graph();
    GraphSnapshot snap(g);
    Crpq q = ParseCrpq("q(x1, x2, z) := owner(y1, x1), owner(y2, x2), "
                       "shortest (Transfer^z)+ (y1, y2)")
                 .ValueOrDie();
    Result<CrpqResult> r = EvalCrpq(g, q, {.snapshot = &snap});
    printf("E2 / Example 17 (shortest grouped by endpoint pair):\n%s",
           r.value().ToString(g).c_str());
    printf("(paper spotlights Jay,Rebecca -> list(t10) and "
           "Mike,Megan -> list(t7, t4))\n");
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
