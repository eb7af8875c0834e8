// E6 (Section 6.3, "Data Filters"): shortest paths under data filters must
// look beyond the unconstrained shortest path. Paper claims on Figure 3:
//   - shortest Mike→Rebecca transfer path with one amount < 4.5M is
//     path(a3, t6, a4, t9, a6, t10, a5) (length 3, vs 1 unconstrained);
//   - requiring two cheap transfers forces a cycle (t9 twice, length 6).
// The scaling series uses transfer rings where the only cheap edge sits
// k hops behind the target.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "src/datatest/dl_eval.h"
#include "src/graph/builtin_graphs.h"
#include "src/graph/generators.h"
#include "src/regex/parser.h"

namespace gqzoo {
namespace {

constexpr const char* kOneCheap =
    "( ()[Transfer] )* ()[Transfer][amount < 4500000] ( ()[Transfer] )* ()";

void BM_Fig3_OneCheap(benchmark::State& state) {
  PropertyGraph g = Figure3Graph();
  GraphSnapshot snap(g);
  DlNfa nfa = DlNfa::FromRegex(
      *ParseRegex(kOneCheap, RegexDialect::kDl).ValueOrDie(), g);
  DlEvaluator evaluator(g, nfa, &snap);
  NodeId a3 = *g.FindNode("a3");
  NodeId a5 = *g.FindNode("a5");
  size_t len = 0;
  for (auto _ : state) {
    len = evaluator.ShortestLength(a3, a5);
    benchmark::DoNotOptimize(len);
  }
  state.counters["shortest_len"] = static_cast<double>(len);  // paper: 3
}
BENCHMARK(BM_Fig3_OneCheap);

void BM_Fig3_TwoCheap(benchmark::State& state) {
  PropertyGraph g = Figure3Graph();
  GraphSnapshot snap(g);
  const std::string cheap = "()[Transfer][amount < 4500000]";
  const std::string query = "( ()[Transfer] )* " + cheap +
                            " ( ()[Transfer] )* " + cheap +
                            " ( ()[Transfer] )* ()";
  DlNfa nfa = DlNfa::FromRegex(
      *ParseRegex(query, RegexDialect::kDl).ValueOrDie(), g);
  DlEvaluator evaluator(g, nfa, &snap);
  NodeId a3 = *g.FindNode("a3");
  NodeId a5 = *g.FindNode("a5");
  size_t len = 0;
  for (auto _ : state) {
    len = evaluator.ShortestLength(a3, a5);
    benchmark::DoNotOptimize(len);
  }
  state.counters["shortest_len"] = static_cast<double>(len);  // paper: 6
}
BENCHMARK(BM_Fig3_TwoCheap);

void BM_Ring_ShortestWithFilter(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  PropertyGraph g = TransferRing(n, /*num_cheap=*/1, /*threshold=*/4.5e6,
                                 /*seed=*/7);
  GraphSnapshot snap(g);
  DlNfa nfa = DlNfa::FromRegex(
      *ParseRegex(kOneCheap, RegexDialect::kDl).ValueOrDie(), g);
  DlEvaluator evaluator(g, nfa, &snap);
  NodeId u = *g.FindNode("acct1");
  NodeId v = *g.FindNode("acct0");
  size_t len = 0;
  for (auto _ : state) {
    len = evaluator.ShortestLength(u, v);
    benchmark::DoNotOptimize(len);
  }
  state.counters["shortest_len"] = static_cast<double>(len);
}
BENCHMARK(BM_Ring_ShortestWithFilter)->RangeMultiplier(2)->Range(16, 1024);

void BM_Ring_ShortestNoFilter(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  PropertyGraph g = TransferRing(n, 1, 4.5e6, 7);
  GraphSnapshot snap(g);
  DlNfa nfa = DlNfa::FromRegex(
      *ParseRegex("( ()[Transfer] )* ()", RegexDialect::kDl).ValueOrDie(), g);
  DlEvaluator evaluator(g, nfa, &snap);
  NodeId u = *g.FindNode("acct1");
  NodeId v = *g.FindNode("acct0");
  for (auto _ : state) {
    size_t len = evaluator.ShortestLength(u, v);
    benchmark::DoNotOptimize(len);
  }
}
BENCHMARK(BM_Ring_ShortestNoFilter)->RangeMultiplier(2)->Range(16, 1024);

}  // namespace
}  // namespace gqzoo

int main(int argc, char** argv) {
  {
    using namespace gqzoo;
    PropertyGraph g = Figure3Graph();
    GraphSnapshot snap(g);
    DlNfa nfa = DlNfa::FromRegex(
        *ParseRegex(kOneCheap, RegexDialect::kDl).ValueOrDie(), g);
    DlEvaluator evaluator(g, nfa, &snap);
    NodeId a3 = *g.FindNode("a3");
    NodeId a5 = *g.FindNode("a5");
    EnumerationLimits limits;
    limits.max_length = 16;
    auto paths = evaluator.CollectModePaths(a3, a5, PathMode::kShortest,
                                            limits);
    printf("E6 / Section 6.3 data filters on Figure 3.\n");
    printf("shortest Mike->Rebecca with one amount < 4.5M:\n");
    for (const PathBinding& pb : paths) {
      printf("  %s (length %zu)\n", pb.path.ToString(g.skeleton()).c_str(),
             pb.path.Length());
    }
    printf("(paper: path(a3, t6, a4, t9, a6, t10, a5), length 3; "
           "unconstrained shortest has length 1)\n\n");
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
