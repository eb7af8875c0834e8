// Mutable-graph write path: what a small mutation costs before the next
// query can run, and what mixed read/write traffic does to read latency.
//
// BM_FirstQueryAfterMutation compares the two ways to make one added edge
// visible on an n-node / m-edge random graph:
//   mode=delta    ApplyMutation (overlay append) + first query over the
//                 spliced merged view — O(delta) write, merge-on-read.
//   mode=rebuild  what an immutable engine must do: clone the graph, apply
//                 the edge, SetGraph (epoch bump: CSR + stats rebuild, plan
//                 cache flushed) + first query (recompile).
// The acceptance bar for the delta subsystem is delta ≥5× faster to first
// query; BENCH_mutation.json records the measured ratio.
//
// BM_MixedReadWrite drives one engine with an interleaved stream at a
// fixed write percentage (1 / 10 / 50) — reads are RPQs over the current
// view, writes alternate add-edge / del-edge so the graph stays
// size-stable while background compaction churns underneath. Counters
// report read throughput and p50/p99 read latency.
//
// `--smoke` (consumed before benchmark flags) shrinks sizes for the CI
// bit-rot check. Full runs emit BENCH_mutation.json via
// --benchmark_format=json plus hand-reduced summary numbers.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "src/engine/engine.h"
#include "src/graph/delta/delta.h"
#include "src/graph/generators.h"

namespace gqzoo {
namespace {

size_t g_nodes = 4096;
size_t g_edges = 65536;

/// The reads are point-ish lookups over the rare label, so the measurement
/// isolates write-to-visibility cost instead of an O(all-edges) scan.
QueryRequest ReadReq() {
  QueryRequest request;
  request.language = QueryLanguage::kRpq;
  request.text = "b";
  request.max_display_rows = 5;  // count all rows, render almost none
  return request;
}

/// Bulk `a` edges plus a sparse `b` label (1/1024 of the edges): mutating
/// and reading `b` is the realistic small-write shape — the stats patch
/// stays scoped to the rare label while the bulk of the graph rides along
/// untouched. Objects carry Figure 3-shaped property
/// payloads (owner/flag on nodes, amount/date on edges): the overlay
/// borrows all of it from the base, while the rebuild path clones it.
PropertyGraph BenchGraph() {
  PropertyGraph g;
  std::mt19937_64 rng(17);
  std::uniform_int_distribution<uint32_t> node_dist(
      0, static_cast<uint32_t>(g_nodes) - 1);
  std::uniform_int_distribution<int64_t> value_dist(0, 99);
  for (size_t i = 0; i < g_nodes; ++i) {
    NodeId node = g.AddNode("n" + std::to_string(i), "N");
    g.SetProperty(ObjectRef::Node(node), "k", Value(value_dist(rng)));
    g.SetProperty(ObjectRef::Node(node), "owner",
                  Value("acct" + std::to_string(i)));
    g.SetProperty(ObjectRef::Node(node), "flag", Value(i % 7 == 0));
  }
  for (size_t e = 0; e < g_edges; ++e) {
    const char* label = (e % 1024 == 0) ? "b" : "a";
    EdgeId edge = g.AddEdge(node_dist(rng), node_dist(rng), label);
    g.SetProperty(ObjectRef::Edge(edge), "amount", Value(value_dist(rng)));
    g.SetProperty(ObjectRef::Edge(edge), "date",
                  Value("2025-01-" + std::to_string(1 + e % 28)));
  }
  return g;
}

/// mode 0 = delta overlay, mode 1 = clone + SetGraph rebuild. One
/// iteration = make one new edge visible and run the first query that
/// sees it.
void BM_FirstQueryAfterMutation(benchmark::State& state) {
  const bool rebuild = state.range(0) != 0;
  QueryEngine::Options options;
  options.num_threads = 2;
  // The fold is driven explicitly (between timed iterations) so every
  // iteration measures the same thing: one op on an empty overlay.
  options.mutation.background_compaction = false;
  options.mutation.compact_min_ops = size_t{1} << 30;
  options.mutation.compact_ratio = 1e9;

  PropertyGraph base = BenchGraph();
  QueryEngine engine(BenchGraph(), options);
  QueryRequest read = ReadReq();
  // Warm: plan compiled, CSR built, first read done.
  benchmark::DoNotOptimize(engine.Execute(read));

  size_t serial = 0;
  for (auto _ : state) {
    const std::string edge_name = "bm" + std::to_string(serial++);
    if (rebuild) {
      // Clone-and-replace: what making this edge visible costs without a
      // write path. SetGraph bumps the epoch, so the first read also
      // recompiles its plan — that loss is part of the rebuild price.
      PropertyGraph next = base;
      next.AddEdge(0, 1, "b", edge_name);
      engine.SetGraph(std::move(next));
      benchmark::DoNotOptimize(engine.Execute(read));
    } else {
      MutationBatch batch;
      batch.AddEdge(edge_name, "n0", "n1", "b");
      benchmark::DoNotOptimize(engine.ApplyMutation(batch));
      benchmark::DoNotOptimize(engine.Execute(read));
      if (serial % 64 == 0) {
        // Fold occasionally (outside timing) so the overlay stays small;
        // folding every iteration would let the retired generation's
        // teardown bleed into the next timed read on small machines.
        state.PauseTiming();
        engine.CompactNow();
        state.ResumeTiming();
      }
    }
  }
  state.counters["edges"] = static_cast<double>(g_edges);
}

/// One engine, an interleaved read/write stream at `write_pct` percent
/// writes. One iteration = one operation (read or write, by schedule).
void BM_MixedReadWrite(benchmark::State& state) {
  const int write_pct = static_cast<int>(state.range(0));
  QueryEngine::Options options;
  options.num_threads = 2;
  QueryEngine engine(BenchGraph(), options);
  QueryRequest read = ReadReq();
  benchmark::DoNotOptimize(engine.Execute(read));

  std::vector<double> read_us;
  read_us.reserve(1 << 16);
  size_t op = 0, writes = 0, write_errors = 0;
  std::string pending_edge;
  for (auto _ : state) {
    const bool is_write = static_cast<int>(op % 100) < write_pct;
    if (is_write) {
      MutationBatch batch;
      if (pending_edge.empty()) {
        pending_edge = "w" + std::to_string(writes);
        batch.AddEdge(pending_edge, "n0", "n1", "b");
      } else {
        batch.RemoveEdge(pending_edge);
        pending_edge.clear();
      }
      ++writes;
      if (!engine.ApplyMutation(batch).ok()) ++write_errors;
    } else {
      const auto start = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(engine.Execute(read));
      const auto stop = std::chrono::steady_clock::now();
      read_us.push_back(
          std::chrono::duration<double, std::micro>(stop - start).count());
    }
    ++op;
  }

  std::sort(read_us.begin(), read_us.end());
  auto pct = [&read_us](double p) {
    if (read_us.empty()) return 0.0;
    size_t idx = static_cast<size_t>(p * (read_us.size() - 1));
    return read_us[idx];
  };
  state.counters["reads_per_sec"] = benchmark::Counter(
      static_cast<double>(read_us.size()), benchmark::Counter::kIsRate);
  state.counters["p50_read_us"] = pct(0.50);
  state.counters["p99_read_us"] = pct(0.99);
  state.counters["writes"] = static_cast<double>(writes);
  state.counters["write_errors"] = static_cast<double>(write_errors);
  state.counters["compactions"] =
      static_cast<double>(engine.delta_info().compactions);
}

void Register(bool smoke) {
  if (smoke) {
    g_nodes = 512;
    g_edges = 4096;
  }
  benchmark::RegisterBenchmark("BM_FirstQueryAfterMutation",
                               BM_FirstQueryAfterMutation)
      ->ArgsProduct({{0, 1}})
      ->ArgNames({"rebuild"})
      ->Unit(benchmark::kMillisecond)
      ->UseRealTime();
  benchmark::RegisterBenchmark("BM_MixedReadWrite", BM_MixedReadWrite)
      ->ArgsProduct({{1, 10, 50}})
      ->ArgNames({"write_pct"})
      ->Unit(benchmark::kMillisecond)
      ->UseRealTime();
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
