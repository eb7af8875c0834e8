// Label-indexed CSR snapshot benchmarks: GraphSnapshot slice-based RPQ
// evaluation across the three graph families the paper's experiments use —
// label-rich sparse random graphs (where per-label slicing shrinks the inner
// loop by ~1/num_labels), cliques (single label, slicing gives no pruning;
// carries the parallel sharding runs), and the Figure-5 parallel-chain
// family. Also measures snapshot build cost and parallel scaling at 1, 2,
// and 4 participating threads.
//
// `--smoke` (consumed before benchmark flags) shrinks every size so the CI
// Release job can execute each benchmark once as a correctness/latency
// smoke check. Full runs emit BENCH_csr.json via --benchmark_format=json.

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/graph/csr.h"
#include "src/graph/generators.h"
#include "src/regex/parser.h"
#include "src/rpq/rpq_eval.h"
#include "src/util/thread_pool.h"

namespace gqzoo {
namespace {

Nfa Compile(const char* regex, const EdgeLabeledGraph& g) {
  return Nfa::FromRegex(
      *ParseRegex(regex, RegexDialect::kPlain).ValueOrDie(), g);
}

// Label-sparse workload: single-label transitions over a graph with many
// labels, so a slice touches ~deg(v)/num_labels hops of a node's deg(v).
constexpr const char* kSparseRegex = "a (b|c)* d";

void BM_Sparse_Snapshot(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t labels = static_cast<size_t>(state.range(1));
  EdgeLabeledGraph g = RandomGraph(n, 32 * n, labels, /*seed=*/11);
  GraphSnapshot snap(g);
  Nfa nfa = Compile(kSparseRegex, g);
  size_t answers = 0;
  for (auto _ : state) {
    auto pairs = EvalRpq(snap, nfa);
    answers = pairs.size();
    benchmark::DoNotOptimize(pairs);
  }
  state.counters["answers"] = static_cast<double>(answers);
}

// Clique: one label, so slicing gives no pruning; also carries the
// parallel-scaling runs.
void BM_Clique_Snapshot(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  EdgeLabeledGraph g = Clique(k);
  GraphSnapshot snap(g);
  Nfa nfa = Compile("a a a", g);
  for (auto _ : state) {
    auto pairs = EvalRpq(snap, nfa);
    benchmark::DoNotOptimize(pairs);
  }
}

// Parallel sharding: `threads` = participating threads (caller + helpers).
void BM_Clique_Parallel(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const size_t threads = static_cast<size_t>(state.range(1));
  EdgeLabeledGraph g = Clique(k);
  GraphSnapshot snap(g);
  Nfa nfa = Compile("a a a", g);
  ThreadPool pool(threads > 1 ? threads - 1 : 1);
  ParallelRpqOptions options;
  options.pool = threads > 1 ? &pool : nullptr;
  for (auto _ : state) {
    auto pairs = EvalRpqParallel(snap, nfa, options);
    benchmark::DoNotOptimize(pairs);
  }
  state.counters["threads"] = static_cast<double>(threads);
}

void BM_Fig5_Snapshot(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  EdgeLabeledGraph g = ParallelChain(n);
  GraphSnapshot snap(g);
  Nfa nfa = Compile("a*", g);
  for (auto _ : state) {
    auto pairs = EvalRpq(snap, nfa);
    benchmark::DoNotOptimize(pairs);
  }
}

// Build cost: what SetGraph pays per epoch, amortized over every query
// until the next mutation.
void BM_SnapshotBuild(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  EdgeLabeledGraph g = RandomGraph(n, 32 * n, 8, /*seed=*/11);
  for (auto _ : state) {
    GraphSnapshot snap(g);
    benchmark::DoNotOptimize(snap.ApproxBytes());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(g.NumEdges()));
}

void Register(bool smoke) {
  using benchmark::RegisterBenchmark;
  const int64_t sparse_n = smoke ? 256 : 2048;
  for (int64_t labels : {4, 8, 32}) {
    RegisterBenchmark("BM_Sparse_Snapshot", BM_Sparse_Snapshot)
        ->Args({sparse_n, labels});
  }
  const int64_t clique_k = smoke ? 48 : 192;
  RegisterBenchmark("BM_Clique_Snapshot", BM_Clique_Snapshot)->Arg(clique_k);
  for (int64_t threads : {1, 2, 4}) {
    RegisterBenchmark("BM_Clique_Parallel", BM_Clique_Parallel)
        ->Args({clique_k, threads})
        ->UseRealTime();
  }
  const int64_t fig5_n = smoke ? 512 : 8192;
  RegisterBenchmark("BM_Fig5_Snapshot", BM_Fig5_Snapshot)->Arg(fig5_n);
  RegisterBenchmark("BM_SnapshotBuild", BM_SnapshotBuild)
      ->Arg(smoke ? 1024 : 16384);
}

}  // namespace
}  // namespace gqzoo

int main(int argc, char** argv) {
  bool smoke = false;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  // Smoke mode: tiny sizes plus a minimal repetition budget — one pass
  // that proves every benchmark still runs, not a measurement.
  std::string min_time = "--benchmark_min_time=0.01";
  if (smoke) args.push_back(min_time.data());
  int filtered_argc = static_cast<int>(args.size());
  gqzoo::Register(smoke);
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
