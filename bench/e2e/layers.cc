// The traced run's in-process replay: with no server running, replays the
// workload's distinct requests on a QueryEngine built from the same graph
// text and times each layer call around it — parse, CSR and statistics
// build, plan compilation, the evaluator call the engine makes for each
// plan (with the plan's own automata, join order and wcoj group), the
// engine's Submit/Execute, and on write_mix the write path and storage
// calls. Every call the benchmark makes into src/ below the server lives
// in this file, so an API change touches one place. End-to-end numbers
// never depend on it.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <thread>
#include <variant>

#include "bench/e2e/bench.h"
#include "src/coregql/query.h"
#include "src/crpq/eval.h"
#include "src/crpq/modes.h"
#include "src/datatest/dl_eval.h"
#include "src/engine/plan.h"
#include "src/graph/csr.h"
#include "src/graph/delta/delta.h"
#include "src/graph/graph_io.h"
#include "src/planner/stats.h"
#include "src/rel/wcoj.h"
#include "src/storage/durable.h"
#include "src/storage/snapshot_format.h"
#include "src/util/thread_pool.h"

namespace gqzoo::e2e {

namespace {

namespace fs = std::filesystem;

/// Times `fn` `reps` times, recording one span per call; returns the
/// median in ms.
template <typename Fn>
double Timed(SpanLog* log, const std::string& name, uint64_t request,
             int reps, Samples* all, Fn&& fn) {
  Samples ms;
  for (int i = 0; i < reps; ++i) {
    const auto start = Clock::now();
    fn();
    const auto end = Clock::now();
    log->Add(name, start, end, -1, request);
    ms.Add(MsBetween(start, end));
    if (all != nullptr) all->Add(MsBetween(start, end));
  }
  return ms.Quantile(0.5);
}

uint64_t ProcWriteChars() {
  std::ifstream in("/proc/self/io");
  std::string key;
  uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "wchar:") return value;
  }
  return 0;
}

/// The evaluator call ExecutePlan makes for `plan`, made directly.
struct EvalCall {
  std::string layer;  // span / metric name of the module doing the work
  std::function<size_t()> run;
};

struct ReplayState {
  const PropertyGraph* graph = nullptr;
  const GraphSnapshot* snapshot = nullptr;
  ThreadPool* pool = nullptr;
};

EvalCall CallFor(const ReplayState& s, const Plan& plan, const ReadRequest& r,
                 bool use_wcoj, bool use_batch) {
  const PropertyGraph& g = *s.graph;
  if (const auto* crpq = std::get_if<CrpqPlan>(&plan.compiled)) {
    return {"crpq.eval", [&g, &s, crpq, use_wcoj, use_batch] {
              CrpqEvalOptions o;
              o.snapshot = s.snapshot;
              o.pool = s.pool;
              o.atom_nfas = &crpq->atom_nfas;
              o.join_order = &crpq->join_order;
              o.use_batch = use_batch;
              if (use_wcoj && crpq->wcoj.has_value()) o.wcoj = &*crpq->wcoj;
              Result<CrpqResult> res = EvalCrpq(g.skeleton(), crpq->query, o);
              return res.ok() ? res.value().rows.size() : SIZE_MAX;
            }};
  }
  if (const auto* gql = std::get_if<CoreGqlPlan>(&plan.compiled)) {
    return {"coregql.eval", [&g, &s, gql, use_wcoj, use_batch] {
              CoreQueryEvalOptions o;
              o.path_options.snapshot = s.snapshot;
              o.block_orders = &gql->block_orders;
              o.use_batch = use_batch;
              if (use_wcoj && !gql->block_wcoj.empty()) {
                o.block_wcoj = &gql->block_wcoj;
              }
              Result<CoreQueryResult> res = EvalCoreGqlQuery(g, gql->query, o);
              return res.ok() ? res.value().relation.NumRows() : SIZE_MAX;
            }};
  }
  if (const auto* paths = std::get_if<PathsPlan>(&plan.compiled)) {
    const NodeId u = g.FindNode(r.from).value_or(0);
    const NodeId v = g.FindNode(r.to).value_or(0);
    const PathMode mode = r.mode;
    // The engine's defaults for a paths request without overrides (the
    // wire cannot set them); ReplayLayers checks the row count against
    // Execute's.
    EnumerationLimits limits;
    limits.max_results = 50;
    limits.max_length = 32;
    if (paths->dl_nfa.has_value()) {
      return {"datatest.mode_paths", [&g, &s, paths, u, v, mode, limits] {
                DlEvaluator evaluator(g, *paths->dl_nfa, s.snapshot);
                return evaluator.CollectModePaths(u, v, mode, limits).size();
              }};
    }
    return {"crpq.mode_paths", [&s, paths, u, v, mode, limits] {
              return CollectModePaths(*s.snapshot, *paths->nfa, u, v, mode,
                                      limits)
                  .size();
            }};
  }
  return {"", nullptr};
}

const rel::WcojSpec* WcojOf(const Plan& plan) {
  if (const auto* crpq = std::get_if<CrpqPlan>(&plan.compiled)) {
    return crpq->wcoj.has_value() ? &*crpq->wcoj : nullptr;
  }
  if (const auto* gql = std::get_if<CoreGqlPlan>(&plan.compiled)) {
    for (const auto& spec : gql->block_wcoj) {
      if (spec.has_value()) return &*spec;
    }
  }
  return nullptr;
}

/// q-error of every conjunct of a CRPQ plan: the planner's estimate
/// against the rows the atom alone returns.
void ConjunctQErrors(const ReplayState& s, const CrpqPlan& plan,
                     Samples* qerror) {
  for (const ExplainEntry& e : plan.explain.order) {
    if (e.conjunct >= plan.query.atoms.size()) continue;
    const CrpqAtom& atom = plan.query.atoms[e.conjunct];
    Crpq single;
    single.name = "q";
    for (const CrpqTerm* t : {&atom.from, &atom.to}) {
      if (!t->is_constant &&
          std::find(single.head.begin(), single.head.end(), t->name) ==
              single.head.end()) {
        single.head.push_back(t->name);
      }
    }
    if (single.head.empty()) continue;
    single.atoms.push_back(atom);
    CrpqEvalOptions o;
    o.snapshot = s.snapshot;
    Result<CrpqResult> res = EvalCrpq(s.graph->skeleton(), single, o);
    if (!res.ok()) continue;
    const double actual = std::max<double>(1, res.value().rows.size());
    const double est = std::max<double>(1, static_cast<double>(e.est_rows));
    qerror->Add(std::max(actual / est, est / actual));
  }
}

}  // namespace

bool ReplayLayers(const ReplayInput& in, SpanLog* log,
                  std::vector<Metric>* out, std::string* error) {
  const bool smoke = in.spec.scale < 0.2;
  const int reps = smoke ? 1 : 3;
  auto add = [out](const std::string& name, double value,
                   const std::string& unit, size_t samples) {
    out->push_back(Metric{name, value, unit, samples});
  };
  uint64_t request = 1u << 30;  // replay ids, apart from the wire's

  // graph: text parse, CSR build; planner: statistics build.
  PropertyGraph parsed;
  Samples parse_s;
  for (int i = 0; i < (smoke ? 1 : 2); ++i) {
    const auto start = Clock::now();
    Result<PropertyGraph> g = ParsePropertyGraph(*in.graph_text);
    const auto end = Clock::now();
    if (!g.ok()) {
      *error = "parse: " + g.error().message();
      return false;
    }
    log->Add("graph.parse", start, end, -1, request);
    parse_s.Add(std::chrono::duration<double>(end - start).count());
    parsed = std::move(g).value();
  }
  add("graph.parse_s", parse_s.Quantile(0.5), "s", parse_s.size());

  QueryEngine::Options options;
  options.num_threads = in.threads;
  QueryEngine engine(std::move(parsed), options);
  std::shared_ptr<const PropertyGraph> graph = engine.graph_snapshot();
  std::shared_ptr<const GraphSnapshot> snapshot = engine.csr_snapshot();
  add("graph.csr_build_ms",
      Timed(log, "graph.csr_build", request, reps, nullptr,
            [&] { GraphSnapshot rebuilt(*graph); }),
      "ms", static_cast<size_t>(reps));
  std::unique_ptr<SnapshotStats> stats;
  add("planner.stats_build_ms",
      Timed(log, "planner.stats_build", request, reps, nullptr,
            [&] { stats = std::make_unique<SnapshotStats>(*snapshot); }),
      "ms", static_cast<size_t>(reps));

  ThreadPool pool(in.threads);
  ReplayState state{graph.get(), snapshot.get(), &pool};
  Samples compile_us, exec_ms, eval_ms, render_ms, qerror;
  std::map<std::string, Samples> module_ms;
  Samples wcoj_ms, wcoj_speedup, batch_speedup;
  size_t wcoj_templates = 0;

  for (const ReadRequest& r : in.requests) {
    ++request;
    // planner: compilation with the epoch's statistics, as on a miss.
    PlanPtr plan;
    for (int i = 0; i < reps; ++i) {
      const auto start = Clock::now();
      Result<PlanPtr> compiled =
          CompilePlan(r.language, r.text, *graph, engine.graph_epoch(), {},
                      stats.get());
      const auto end = Clock::now();
      if (!compiled.ok()) {
        *error = "compile '" + r.text + "': " + compiled.error().message();
        return false;
      }
      log->Add("planner.compile", start, end, -1, request);
      compile_us.Add(MsBetween(start, end) * 1000.0);
      plan = std::move(compiled).value();
    }

    // engine: one cold Execute fills the plan cache; warm ones follow.
    const QueryRequest local = LocalRequest(r);
    Result<QueryResponse> cold = engine.Execute(local);
    if (!cold.ok()) {
      *error = "execute '" + r.text + "' failed";
      return false;
    }
    const double warm = Timed(log, "engine.execute", request, reps, &exec_ms,
                              [&] { (void)engine.Execute(local); });

    // The evaluator call alone must return Execute's rows; otherwise it is
    // not the call the engine makes (e.g. the engine's limits changed).
    EvalCall call = CallFor(state, *plan, r, true, false);
    if (call.run == nullptr) {
      *error = "no evaluator for '" + r.text + "'";
      return false;
    }
    Samples& module = module_ms[call.layer];
    size_t rows = 0;
    const double eval = Timed(log, call.layer, request, reps, &module,
                              [&] { rows = call.run(); });
    if (rows != cold.value().num_rows) {
      *error = call.layer + " on '" + r.text + "' returned " +
               std::to_string(rows) + " rows, Execute " +
               std::to_string(cold.value().num_rows);
      return false;
    }
    eval_ms.Add(eval);
    render_ms.Add(warm - eval);

    if (const auto* crpq = std::get_if<CrpqPlan>(&plan->compiled)) {
      ConjunctQErrors(state, *crpq, &qerror);
    }
    // rel: the wcoj join alone, and the evaluator with and without it;
    // the batch kernel against the row kernel where no wcoj group runs.
    if (const rel::WcojSpec* spec = WcojOf(*plan)) {
      ++wcoj_templates;
      Timed(log, "rel.wcoj", request, reps, &wcoj_ms,
            [&] { (void)rel::WcojEval(*snapshot, *spec, 0); });
      EvalCall binary = CallFor(state, *plan, r, false, false);
      const double without =
          Timed(log, call.layer + ".binary", request, reps, nullptr,
                [&] { (void)binary.run(); });
      if (eval > 0) wcoj_speedup.Add(without / eval);
    } else if (r.language != QueryLanguage::kPaths &&
               in.spec.kind == WorkloadKind::kAnalytics) {
      EvalCall batch = CallFor(state, *plan, r, true, true);
      const double batched =
          Timed(log, call.layer + ".batch", request, reps, nullptr,
                [&] { (void)batch.run(); });
      if (batched > 0) batch_speedup.Add(eval / batched);
    }
  }

  // engine: Submit from the workload's reader count; queue wait is the
  // round trip minus the engine's own latency.
  Samples queue_ms;
  {
    const size_t readers = in.spec.readers;
    std::vector<std::thread> threads;
    std::vector<Samples> per_thread(readers);
    for (size_t c = 0; c < readers; ++c) {
      threads.emplace_back([&, c] {
        for (size_t i = c; i < in.requests.size() * 2; i += readers) {
          const ReadRequest& r = in.requests[i % in.requests.size()];
          const auto start = Clock::now();
          Result<QueryResponse> res = engine.Submit(LocalRequest(r)).get();
          const double wall = MsBetween(start, Clock::now());
          if (res.ok()) {
            per_thread[c].Add(wall -
                              static_cast<double>(res.value().latency.count()) /
                                  1000.0);
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (const Samples& s : per_thread) queue_ms.Append(s);
  }

  add("planner.compile_us.p50", compile_us.Quantile(0.5), "us",
      compile_us.size());
  add("planner.compile_us.p99", compile_us.Quantile(0.99), "us",
      compile_us.size());
  add("engine.exec_warm_ms.p50", exec_ms.Quantile(0.5), "ms", exec_ms.size());
  add("engine.eval_ms.p50", eval_ms.Quantile(0.5), "ms", eval_ms.size());
  add("engine.render_ms.p50", render_ms.Quantile(0.5), "ms",
      render_ms.size());
  add(std::string("engine.queue_ms.") + kTail, queue_ms.Quantile(kTailQ),
      "ms", queue_ms.size());
  if (qerror.size() > 0) {
    add("planner.qerror.p50", qerror.Quantile(0.5), "ratio", qerror.size());
    add("planner.qerror.max", qerror.Quantile(1.0), "ratio", qerror.size());
  }
  add("planner.wcoj_templates", static_cast<double>(wcoj_templates), "count",
      in.requests.size());
  for (const auto& [layer, ms] : module_ms) {
    add(layer + "_ms.p50", ms.Quantile(0.5), "ms", ms.size());
    if (layer.find("mode_paths") != std::string::npos) {
      add(layer + "_ms.p99", ms.Quantile(0.99), "ms", ms.size());
    }
  }
  if (wcoj_ms.size() > 0) {
    add("rel.wcoj_ms.p50", wcoj_ms.Quantile(0.5), "ms", wcoj_ms.size());
    add("rel.wcoj_speedup", wcoj_speedup.Quantile(0.5), "ratio",
        wcoj_speedup.size());
  }
  if (batch_speedup.size() > 0) {
    add("rel.batch_speedup", batch_speedup.Quantile(0.5), "ratio",
        batch_speedup.size());
  }
  if (!in.spec.persist) return true;

  // --- write_mix: the write path and storage --------------------------------
  std::error_code ec;
  fs::remove_all(in.replay_dir, ec);
  fs::create_directories(in.replay_dir, ec);
  std::vector<MutationBatch> batches(in.batches.size());
  uint64_t op_text_bytes = 0;
  for (size_t i = 0; i < in.batches.size(); ++i) {
    if (!ParseBatch(in.batches[i], &batches[i], error)) return false;
    for (const std::string& line : in.batches[i]) op_text_bytes += line.size();
  }

  // engine: RAM-only apply on the replay engine.
  Samples apply_ms;
  for (const MutationBatch& b : batches) {
    const auto start = Clock::now();
    const bool ok = engine.ApplyMutation(b).ok();
    const auto end = Clock::now();
    if (!ok) {
      *error = "RAM-only ApplyMutation failed";
      return false;
    }
    log->Add("engine.apply", start, end, -1, request);
    apply_ms.Add(MsBetween(start, end));
  }
  add("engine.apply_ms.p50", apply_ms.Quantile(0.5), "ms", apply_ms.size());

  // storage: recovery of the measured server's starting state.
  const std::string recover_dir = in.replay_dir + "/recover";
  fs::copy(in.prepared_dir, recover_dir, fs::copy_options::recursive, ec);
  if (ec) {
    *error = "copy prepared dir: " + ec.message();
    return false;
  }
  storage::DurabilityOptions dopt;
  dopt.dir = recover_dir;
  auto start = Clock::now();
  Result<storage::DurableStore::Opened> opened =
      storage::DurableStore::Open(dopt, PropertyGraph());
  auto end = Clock::now();
  if (!opened.ok()) {
    *error = "recover: " + opened.error().message();
    return false;
  }
  log->Add("storage.recover", start, end, -1, request);
  add("storage.recover_s", std::chrono::duration<double>(end - start).count(),
      "s", 1);

  // storage: WAL appends with fsync, as the server commits.
  Samples append_ms;
  for (const MutationBatch& b : batches) {
    start = Clock::now();
    Result<uint64_t> lsn = opened.value().store->AppendBatch(b.ops);
    end = Clock::now();
    if (!lsn.ok()) {
      *error = "AppendBatch: " + lsn.error().message();
      return false;
    }
    log->Add("storage.wal_append", start, end, -1, request);
    append_ms.Add(MsBetween(start, end));
  }
  add("storage.wal_append_ms.p50", append_ms.Quantile(0.5), "ms",
      append_ms.size());
  add("storage.wal_append_ms.p99", append_ms.Quantile(0.99), "ms",
      append_ms.size());

  // storage: checkpoint encode of the recovered graph, then open it mapped.
  const PropertyGraph& recovered = *opened.value().graph;
  std::string image;
  start = Clock::now();
  image = storage::SnapshotCodec::EncodeSnapshot(recovered, 0);
  end = Clock::now();
  log->Add("storage.snapshot_encode", start, end, -1, request);
  add("storage.snapshot_encode_s",
      std::chrono::duration<double>(end - start).count(), "s", 1);
  const std::string image_path = in.replay_dir + "/snapshot.bin";
  {
    std::ofstream f(image_path, std::ios::binary);
    f << image;
  }
  add("storage.snapshot_open_ms",
      Timed(log, "storage.snapshot_open", request, reps, nullptr,
            [&] {
              Result<storage::SnapshotFile> file =
                  storage::SnapshotFile::OpenMapped(image_path);
              if (file.ok()) {
                (void)storage::SnapshotCodec::Open(std::move(file).value());
              }
            }),
      "ms", static_cast<size_t>(reps));

  // engine: durable apply and compaction on a fresh durable engine;
  // write amplification = bytes written to files per op-text byte.
  Result<PropertyGraph> base = ParsePropertyGraph(*in.graph_text);
  if (!base.ok()) {
    *error = "parse: " + base.error().message();
    return false;
  }
  QueryEngine::Options durable_options = options;
  durable_options.durability.dir = in.replay_dir + "/durable";
  Result<std::unique_ptr<QueryEngine>> durable =
      QueryEngine::RecoverFrom(std::move(base).value(), durable_options);
  if (!durable.ok()) {
    *error = "durable engine: " + durable.error().message();
    return false;
  }
  const uint64_t wchar_before = ProcWriteChars();
  Samples durable_ms;
  for (const MutationBatch& b : batches) {
    start = Clock::now();
    const bool ok = durable.value()->ApplyMutation(b).ok();
    end = Clock::now();
    if (!ok) {
      *error = "durable ApplyMutation failed";
      return false;
    }
    log->Add("engine.apply_durable", start, end, -1, request);
    durable_ms.Add(MsBetween(start, end));
  }
  start = Clock::now();
  durable.value()->CompactNow();
  end = Clock::now();
  log->Add("engine.compact", start, end, -1, request);
  const uint64_t written = ProcWriteChars() - wchar_before;
  add("engine.apply_durable_ms.p50", durable_ms.Quantile(0.5), "ms",
      durable_ms.size());
  add("engine.compact_s", std::chrono::duration<double>(end - start).count(),
      "s", 1);
  add("storage.write_amp",
      op_text_bytes > 0 ? static_cast<double>(written) /
                              static_cast<double>(op_text_bytes)
                        : 0,
      "ratio", batches.size());
  durable.value().reset();
  fs::remove_all(in.replay_dir, ec);
  return true;
}

}  // namespace gqzoo::e2e
