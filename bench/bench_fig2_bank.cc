// E1 (Figure 2 + Examples 12, 13): RPQ and CRPQ evaluation on the paper's
// bank-transfer graph. The paper's claims are exact answer sets:
//   Transfer*  — complete on the accounts {a1..a6} (Example 12)
//   q1         — {(a3,a2,a4), (a6,a3,a5)} (Example 13)
//   q2         — contains (a4, Rebecca, no) (Example 13)
// Timings show the product-construction costs on the micro graph.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "src/crpq/crpq_parser.h"
#include "src/crpq/eval.h"
#include "src/graph/builtin_graphs.h"
#include "src/rpq/rpq_eval.h"
#include "src/regex/parser.h"

namespace gqzoo {
namespace {

void BM_Fig2_TransferStar(benchmark::State& state) {
  EdgeLabeledGraph g = Figure2Graph();
  GraphSnapshot snap(g);
  Nfa nfa = Nfa::FromRegex(*ParseRegex("Transfer*", RegexDialect::kPlain)
                                .ValueOrDie(),
                           g);
  size_t answers = 0;
  for (auto _ : state) {
    auto pairs = EvalRpq(snap, nfa);
    answers = pairs.size();
    benchmark::DoNotOptimize(pairs);
  }
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_Fig2_TransferStar);

void BM_Fig2_Example13_q1(benchmark::State& state) {
  EdgeLabeledGraph g = Figure2Graph();
  GraphSnapshot snap(g);
  Crpq q = ParseCrpq("q1(x1, x2, x3) := Transfer(x1, x2), Transfer(x1, x3), "
                     "Transfer(x2, x3)")
               .ValueOrDie();
  size_t answers = 0;
  for (auto _ : state) {
    Result<CrpqResult> r = EvalCrpq(g, q, {.snapshot = &snap});
    answers = r.value().rows.size();
    benchmark::DoNotOptimize(r);
  }
  state.counters["answers"] = static_cast<double>(answers);  // paper: 2
}
BENCHMARK(BM_Fig2_Example13_q1);

void BM_Fig2_Example13_q2(benchmark::State& state) {
  EdgeLabeledGraph g = Figure2Graph();
  GraphSnapshot snap(g);
  Crpq q = ParseCrpq("q2(x, x1, x2) := owner(y, x1), isBlocked(y, x2), "
                     "(Transfer Transfer?)(x, y)")
               .ValueOrDie();
  size_t answers = 0;
  for (auto _ : state) {
    Result<CrpqResult> r = EvalCrpq(g, q, {.snapshot = &snap});
    answers = r.value().rows.size();
    benchmark::DoNotOptimize(r);
  }
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_Fig2_Example13_q2);

}  // namespace
}  // namespace gqzoo

int main(int argc, char** argv) {
  {
    using namespace gqzoo;
    EdgeLabeledGraph g = Figure2Graph();
    GraphSnapshot snap(g);
    auto pairs = EvalRpq(
        snap, Nfa::FromRegex(
                  *ParseRegex("Transfer*", RegexDialect::kPlain).ValueOrDie(),
                  g));
    printf("E1 / Figure 2. Transfer* answers: %zu "
           "(paper: all 36 account pairs + trivial self-pairs)\n",
           pairs.size());
    Crpq q1 = ParseCrpq("q1(x1, x2, x3) := Transfer(x1, x2), "
                        "Transfer(x1, x3), Transfer(x2, x3)")
                  .ValueOrDie();
    Result<CrpqResult> r1 = EvalCrpq(g, q1, {.snapshot = &snap});
    printf("q1 answers (paper: {(a3,a2,a4), (a6,a3,a5)}):\n%s",
           r1.value().ToString(g).c_str());
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
