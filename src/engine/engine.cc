#include "src/engine/engine.h"

#include <cassert>
#include <cstdio>
#include <sstream>
#include <thread>
#include <utility>
#include <variant>

#include "src/coregql/group_eval.h"
#include "src/coregql/query.h"
#include "src/crpq/eval.h"
#include "src/crpq/modes.h"
#include "src/datatest/dl_eval.h"
#include "src/nested/regular_queries.h"
#include "src/pmr/build.h"
#include "src/pmr/enumerate.h"
#include "src/rpq/rpq_eval.h"
#include "src/util/failpoint.h"

namespace gqzoo {

namespace {

/// Renders a compiled plan for EXPLAIN. Only conjunctive plans (CRPQ,
/// dl-CRPQ, CoreGQL) carry a join order; everything else compiles to a
/// single automaton with nothing to reorder.
std::string RenderExplain(const Plan& plan) {
  if (const auto* crpq = std::get_if<CrpqPlan>(&plan.compiled)) {
    return crpq->explain.ToString();
  }
  if (const auto* dl = std::get_if<DlCrpqPlan>(&plan.compiled)) {
    return dl->explain.ToString();
  }
  if (const auto* gql = std::get_if<CoreGqlPlan>(&plan.compiled)) {
    std::string out;
    for (size_t i = 0; i < gql->block_explains.size(); ++i) {
      if (gql->block_explains.size() > 1) {
        out += "block " + std::to_string(i + 1) + ":\n";
      }
      out += gql->block_explains[i].ToString();
    }
    return out;
  }
  return "nothing to reorder: plan compiles to a single automaton\n";
}

/// Render target for ExecutePlan: accumulates rows into one string (the
/// historical materialize-then-return path) or, when the request carries a
/// RowSink, streams them in bounded chunks as the render loop produces
/// them. Chunks flush only at row boundaries, and their concatenation is
/// byte-identical to the sink-less text — the server's wire framing and
/// the in-process response are the same bytes. A sink that refuses a chunk
/// abandons the stream and cancels the query through the context, so a
/// disconnected client stops the enumeration instead of rendering rows
/// nobody will read.
class ChunkedResultWriter {
 public:
  ChunkedResultWriter(RowSink* sink, const QueryContext* ctx)
      : sink_(sink), ctx_(ctx) {}

  template <typename T>
  ChunkedResultWriter& operator<<(T&& v) {
    if (!abandoned_) buf_ << std::forward<T>(v);
    return *this;
  }

  /// Marks a row boundary — the only place a chunk may end.
  void EndRow() {
    if (sink_ != nullptr && !abandoned_ &&
        buf_.tellp() >= static_cast<std::streamoff>(kChunkBytes)) {
      FlushChunk();
    }
  }

  /// True once the sink refused a chunk; render loops bail out early.
  bool abandoned() const { return abandoned_; }

  /// Flushes the tail (sink mode) and returns the materialized text
  /// (sink-less mode; empty otherwise — the rows went through the sink).
  std::string Finish() {
    if (sink_ == nullptr) return std::move(buf_).str();
    if (!abandoned_) FlushChunk();
    return std::string();
  }

 private:
  static constexpr size_t kChunkBytes = 4096;

  void FlushChunk() {
    std::string chunk = std::move(buf_).str();
    buf_.str(std::string());
    if (chunk.empty()) return;
    if (!sink_->Write(chunk)) {
      abandoned_ = true;
      if (ctx_ != nullptr) ctx_->RequestCancel();
    }
  }

  RowSink* sink_;
  const QueryContext* ctx_;
  std::ostringstream buf_;
  bool abandoned_ = false;
};

// Whether the compiled plan carries a planner-selected wcoj group (any
// language); feeds the `wcoj_plans` metric on cache misses.
bool PlanHasWcoj(const Plan& plan) {
  if (const auto* crpq = std::get_if<CrpqPlan>(&plan.compiled)) {
    return crpq->wcoj.has_value();
  }
  if (const auto* dl = std::get_if<DlCrpqPlan>(&plan.compiled)) {
    return dl->wcoj.has_value();
  }
  if (const auto* gql = std::get_if<CoreGqlPlan>(&plan.compiled)) {
    for (const auto& spec : gql->block_wcoj) {
      if (spec.has_value()) return true;
    }
  }
  return false;
}

}  // namespace

QueryEngine::QueryEngine(PropertyGraph graph)
    : QueryEngine(std::move(graph), Options{}) {}

QueryEngine::QueryEngine(PropertyGraph graph, Options options)
    : QueryEngine(std::make_shared<const PropertyGraph>(std::move(graph)),
                  std::move(options), nullptr, nullptr) {}

QueryEngine::QueryEngine(std::shared_ptr<const PropertyGraph> graph,
                         Options options,
                         std::shared_ptr<const GraphSnapshot> snapshot,
                         std::shared_ptr<const SnapshotStats> stats)
    : graph_(std::move(graph)),
      snapshot_(snapshot != nullptr ? std::move(snapshot)
                                    : BuildSnapshot(graph_)),
      stats_(stats != nullptr
                 ? std::move(stats)
                 : std::make_shared<const SnapshotStats>(*snapshot_)),
      rpq_shards_(options.rpq_shards),
      use_wcoj_(options.use_wcoj),
      use_batch_kernel_(options.use_batch_kernel),
      default_timeout_(options.default_timeout),
      default_budgets_(options.default_budgets),
      cache_(options.cache_capacity_per_shard, options.cache_shards),
      governor_(options.governor),
      pool_(options.num_threads),
      mutation_policy_(options.mutation),
      mutation_(std::make_unique<MutationManager>(graph_, snapshot_, stats_)) {
  published_ticket_ = mutation_->ticket();
}

QueryEngine::~QueryEngine() {
  // Group-commit may still owe the disk an fsync for acked writes. Pay it
  // *before* the pool is torn down: shutdown runs any queued compaction,
  // which rotates the WAL — the acked tail must be durable while the live
  // log still holds it, not after it has been rewritten.
  (void)FlushWal();
  pool_.Shutdown();
  // Compactions that ran during shutdown may have appended or rotated; a
  // final sync makes their output durable too.
  if (durable_ != nullptr && !durable_->broken()) durable_->Sync();
}

Result<std::unique_ptr<QueryEngine>> QueryEngine::RecoverFrom(
    PropertyGraph initial, Options options) {
  if (options.durability.dir.empty()) {
    return std::unique_ptr<QueryEngine>(
        new QueryEngine(std::move(initial), std::move(options)));
  }
  Result<storage::DurableStore::Opened> opened =
      storage::DurableStore::Open(options.durability, std::move(initial));
  if (!opened.ok()) return opened.error();
  storage::DurableStore::Opened o = std::move(opened).value();
  // On the mapped fast path o.snapshot/o.stats carry the checkpoint's CSR
  // and statistics, so the engine starts without any O(|E|) build at all.
  std::unique_ptr<QueryEngine> engine(
      new QueryEngine(std::move(o.graph), std::move(options),
                      std::move(o.snapshot), std::move(o.stats)));
  // No writes can race this: we hold the only reference.
  engine->durable_ = std::move(o.store);
  engine->recovery_info_ = std::move(o.info);
  engine->durable_checkpoint_lsn_ = engine->durable_->checkpoint_lsn();
  return engine;
}

Result<bool> QueryEngine::FlushWal() {
  std::lock_guard<std::mutex> lock(write_mu_);
  if (durable_ == nullptr) return true;
  return durable_->Sync();
}

std::shared_ptr<const GraphSnapshot> QueryEngine::BuildSnapshot(
    std::shared_ptr<const PropertyGraph> graph) {
  // The snapshot borrows the graph's arrays; the deleter's capture keeps
  // the graph alive for as long as any query pins the snapshot.
  return std::shared_ptr<const GraphSnapshot>(
      new GraphSnapshot(*graph),
      [graph](const GraphSnapshot* s) { delete s; });
}

void QueryEngine::SetGraph(PropertyGraph graph) {
  // Taken for the whole replacement (write_mu_ before graph_mu_, the
  // engine-wide order): the WAL ledger reset below must be atomic with the
  // base reset, or a concurrent writer could log a batch against the
  // outgoing generation after the checkpoint that supersedes it.
  std::lock_guard<std::mutex> write_lock(write_mu_);
  auto next = std::make_shared<const PropertyGraph>(std::move(graph));
  // Build the next epoch's CSR and statistics outside the lock: both are
  // O(|E|) and must not stall concurrent executions.
  auto next_snapshot = BuildSnapshot(next);
  auto next_stats = std::make_shared<const SnapshotStats>(*next_snapshot);
  // Invalidation-version bump first: a reader that compiled against the
  // outgoing graph and races past the eviction below must not re-insert
  // its plan (see the Put guard in ExecuteFrom).
  invalidation_version_.fetch_add(1, std::memory_order_acq_rel);
  mutation_->ResetBase(next, next_snapshot, next_stats);
  if (durable_ != nullptr) {
    // The adopted graph replaces everything logged so far: checkpoint it
    // covering every assigned LSN and restart the ledger. In-flight
    // compactions of the old generation are fenced off by the bump.
    durable_generation_.fetch_add(1, std::memory_order_acq_rel);
    pending_records_.clear();
    checkpointed_ops_ = 0;
    uint64_t covered = durable_->next_lsn() - 1;
    Result<bool> ck = durable_->WriteCheckpoint(*next, covered, {});
    if (ck.ok()) durable_checkpoint_lsn_ = covered;
  }
  uint64_t current_epoch;
  {
    std::lock_guard<std::mutex> lock(graph_mu_);
    graph_ = std::move(next);
    snapshot_ = std::move(next_snapshot);
    stats_ = std::move(next_stats);
    current_epoch = ++epoch_;
    published_ticket_ = mutation_->ticket();
    published_merged_ = false;
  }
  metrics_.graph_epoch_bumps.Increment();
  metrics_.plan_invalidations_full.Increment();
  metrics_.delta_pending_ops.Set(0);
  // Stale-epoch entries can never be returned (the epoch is part of the
  // key); evict them now instead of letting them age out of the LRU.
  size_t evicted = cache_.EvictOtherEpochs(current_epoch);
  if (evicted > 0) metrics_.plans_evicted_dead_epoch.Increment(evicted);
}

void QueryEngine::RefreshViewIfStale() {
  const uint64_t current = mutation_->ticket();
  {
    std::lock_guard<std::mutex> lock(graph_mu_);
    if (published_ticket_ == current) return;
  }
  bool built_merged = false;
  MutationManager::View view = mutation_->CurrentView(&built_merged);
  if (built_merged) metrics_.merged_view_builds.Increment();
  // The displaced generation can be the last reference to a whole graph
  // (old merged view + the base a compaction just retired). Swap it out
  // under the lock but destroy it on the pool: freeing tens of thousands
  // of strings and map nodes on the first read after a compaction would
  // show up directly in that reader's latency.
  std::shared_ptr<const PropertyGraph> retired_graph;
  std::shared_ptr<const GraphSnapshot> retired_snapshot;
  std::shared_ptr<const SnapshotStats> retired_stats;
  {
    std::lock_guard<std::mutex> lock(graph_mu_);
    if (view.ticket < published_ticket_) return;  // a newer publish won
    retired_graph = std::move(graph_);
    retired_snapshot = std::move(snapshot_);
    retired_stats = std::move(stats_);
    graph_ = std::move(view.graph);
    snapshot_ = std::move(view.snapshot);
    stats_ = std::move(view.stats);
    published_ticket_ = view.ticket;
    published_merged_ = view.is_merged;
  }
  bool deferred = pool_.Submit(
      [g = std::move(retired_graph), s = std::move(retired_snapshot),
       st = std::move(retired_stats)]() mutable {
        st.reset();
        s.reset();
        g.reset();
      });
  (void)deferred;  // pool shutting down: the locals free it here instead
}

uint64_t QueryEngine::graph_epoch() const {
  std::lock_guard<std::mutex> lock(graph_mu_);
  return epoch_;
}

std::shared_ptr<const PropertyGraph> QueryEngine::graph_snapshot() const {
  // Accessors are readers too: pick up any published-but-unmaterialized
  // delta, so `show` after a mutation renders the merged view (logically
  // const — the view cache is rebuilt, observable state is unchanged).
  const_cast<QueryEngine*>(this)->RefreshViewIfStale();
  std::lock_guard<std::mutex> lock(graph_mu_);
  return graph_;
}

std::shared_ptr<const GraphSnapshot> QueryEngine::csr_snapshot() const {
  const_cast<QueryEngine*>(this)->RefreshViewIfStale();
  std::lock_guard<std::mutex> lock(graph_mu_);
  return snapshot_;
}

void QueryEngine::set_default_timeout(
    std::optional<std::chrono::milliseconds> t) {
  std::lock_guard<std::mutex> lock(graph_mu_);
  default_timeout_ = t;
}

std::optional<std::chrono::milliseconds> QueryEngine::default_timeout() const {
  std::lock_guard<std::mutex> lock(graph_mu_);
  return default_timeout_;
}

void QueryEngine::set_default_budgets(const ResourceBudgets& budgets) {
  std::lock_guard<std::mutex> lock(graph_mu_);
  default_budgets_ = budgets;
}

ResourceBudgets QueryEngine::default_budgets() const {
  std::lock_guard<std::mutex> lock(graph_mu_);
  return default_budgets_;
}

Result<QueryResponse> QueryEngine::Execute(const QueryRequest& request) {
  return ExecuteFrom(request, std::chrono::steady_clock::now());
}

Result<QueryResponse> QueryEngine::ExecuteFrom(
    const QueryRequest& request, QueryContext::Clock::time_point admitted_at) {
  const auto start = std::chrono::steady_clock::now();
  const size_t lang = static_cast<size_t>(request.language);
  metrics_.queries_total.Increment();
  metrics_.RecordLanguage(request.language);

  // Publish any pending delta as a merged view before pinning. Pure-read
  // workloads take only the one-atomic-compare fast path here.
  RefreshViewIfStale();

  // Snapshot (graph, CSR, epoch, timeout, budgets) atomically; in-flight
  // queries keep the graph and CSR they started with alive even if
  // SetGraph or a mutation races with them (compaction publish included —
  // the shared_ptrs pin the old generation until the query finishes).
  std::shared_ptr<const PropertyGraph> graph;
  std::shared_ptr<const GraphSnapshot> snapshot;
  std::shared_ptr<const SnapshotStats> stats;
  uint64_t epoch;
  bool merged_view;
  std::optional<std::chrono::milliseconds> timeout = request.timeout;
  ResourceBudgets budgets;
  {
    std::lock_guard<std::mutex> lock(graph_mu_);
    graph = graph_;
    snapshot = snapshot_;
    stats = stats_;
    epoch = epoch_;
    merged_view = published_merged_;
    if (!timeout.has_value()) timeout = default_timeout_;
    budgets = default_budgets_;
  }

  // Regular queries evaluate against a mutable working copy of the
  // skeleton (rules add edges), which an overlay-mode view cannot provide.
  // Force the pending delta into a plain base first; a bounded retry
  // covers a concurrent background fold holding the compaction slot.
  if (request.language == QueryLanguage::kRegular && merged_view) {
    for (int attempt = 0; merged_view && attempt < 10; ++attempt) {
      if (!RunCompaction()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      RefreshViewIfStale();
      std::lock_guard<std::mutex> lock(graph_mu_);
      graph = graph_;
      snapshot = snapshot_;
      stats = stats_;
      epoch = epoch_;
      merged_view = published_merged_;
    }
    if (merged_view) {
      metrics_.queries_error.Increment();
      return Error(ErrorCode::kUnavailable,
                   "regular queries need a compacted graph and the pending "
                   "delta could not be folded; retry");
    }
  }
  if (request.memory_budget) budgets.memory_bytes = *request.memory_budget;
  if (request.row_budget) budgets.result_rows = *request.row_budget;
  if (request.step_budget) budgets.steps = *request.step_budget;

  QueryContext ctx;
  if (timeout.has_value() && timeout->count() > 0) {
    ctx = QueryContext::WithDeadline(admitted_at + *timeout);
  }
  ctx.set_budgets(budgets);
  if (request.cancel != nullptr) ctx.set_external_cancel(request.cancel.get());
  // Ungoverned queries keep passing a null context so evaluators skip all
  // polling, exactly as before budgets existed. A request with an external
  // cancel flag or a streaming sink is always governed: both need a live
  // context to trip (disconnect mid-evaluation, sink refusing a chunk).
  const QueryContext* cancel =
      (ctx.deadline().has_value() || budgets.any() ||
       request.cancel != nullptr || request.sink != nullptr)
          ? &ctx
          : nullptr;

  // Anchoring the deadline at admission means a query can arrive here with
  // nothing left: its whole budget was spent waiting in the queue. Fail
  // fast without compiling or evaluating anything.
  if (cancel != nullptr && ctx.Cancelled()) {
    metrics_.queries_error.Increment();
    metrics_.deadline_exceeded.Increment();
    metrics_.cancelled_by_language[lang].Increment();
    const auto waited =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - admitted_at);
    return Error(ErrorCode::kDeadlineExceeded,
                 "deadline of " + std::to_string(timeout->count()) +
                     "ms exceeded before execution started (queued for " +
                     std::to_string(waited.count()) + "ms)");
  }

  PlanOptions plan_options;
  plan_options.optimize = request.optimize;
  PlanCacheKey key =
      PlanCacheKey::For(request.language, request.text, epoch, plan_options);
  // Recorded before the cache probe: if any invalidation (label-scoped or
  // SetGraph) lands while we compile, our plan may describe pre-mutation
  // state and must not be inserted.
  const uint64_t inval_version =
      invalidation_version_.load(std::memory_order_acquire);
  bool cache_hit = false;
  PlanPtr plan = cache_.Get(key);
  if (plan != nullptr) {
    cache_hit = true;
    metrics_.cache_hits.Increment();
  } else {
    metrics_.cache_misses.Increment();
    Result<PlanPtr> compiled = CompilePlan(request.language, request.text,
                                           *graph, epoch, plan_options,
                                           stats.get());
    if (!compiled.ok()) {
      metrics_.queries_error.Increment();
      if (compiled.error().code() == ErrorCode::kParse) {
        metrics_.parse_errors.Increment();
      }
      return compiled.error();
    }
    plan = std::move(compiled).value();
    if (PlanHasWcoj(*plan)) metrics_.wcoj_plans.Increment();
    if (invalidation_version_.load(std::memory_order_acquire) ==
        inval_version) {
      cache_.Put(key, plan);
    }
  }

  if (request.explain) {
    // EXPLAIN renders the compiled plan instead of executing it. The plan
    // was compiled (and cached) exactly as execution would have used it.
    QueryResponse response;
    response.text = RenderExplain(*plan);
    if (request.sink != nullptr) {
      (void)request.sink->Write(response.text);
      response.text.clear();
    }
    response.cache_hit = cache_hit;
    response.latency = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - start);
    metrics_.latency.Record(response.latency);
    metrics_.queries_ok.Increment();
    return response;
  }

  Result<QueryResponse> result =
      ExecutePlan(*plan, *graph, *snapshot, request, cancel);

  const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - start);
  metrics_.latency.Record(elapsed);

  // A tripped context means the evaluators unwound early with a partial
  // result; surface the stop cause as the matching error rather than
  // silent truncation.
  if (cancel != nullptr) {
    metrics_.peak_query_bytes.Update(ctx.memory_peak_bytes());
    (void)ctx.Cancelled();  // fold a just-passed deadline into the cause
    switch (ctx.stop_cause()) {
      case StopCause::kNone:
        break;
      case StopCause::kDeadline:
        metrics_.queries_error.Increment();
        metrics_.deadline_exceeded.Increment();
        metrics_.cancelled_by_language[lang].Increment();
        return Error(ErrorCode::kDeadlineExceeded,
                     "deadline of " + std::to_string(timeout->count()) +
                         "ms exceeded");
      case StopCause::kCancelled:
        metrics_.queries_error.Increment();
        metrics_.cancelled.Increment();
        metrics_.cancelled_by_language[lang].Increment();
        return Error(ErrorCode::kCancelled, "query cancelled");
      default: {  // one of the resource budgets ran out
        metrics_.queries_error.Increment();
        metrics_.resource_exhausted.Increment();
        metrics_.exhausted_by_language[lang].Increment();
        return Error(ErrorCode::kResourceExhausted,
                     "resource budget exhausted: " + ctx.Report().ToString());
      }
    }
  }
  if (!result.ok()) {
    metrics_.queries_error.Increment();
    return result;
  }
  QueryResponse response = std::move(result).value();
  response.cache_hit = cache_hit;
  response.latency = elapsed;
  if (response.truncated) metrics_.truncated_results.Increment();
  metrics_.queries_ok.Increment();
  return response;
}

Result<QueryEngine::MutationResult> QueryEngine::ApplyMutation(
    const MutationBatch& batch) {
  // Writes pass the same admission gate as submitted queries: under
  // overload the whole batch is shed before touching any state.
  if (Failpoint::ShouldFail("engine.apply_mutation") || !governor_.TryAdmit()) {
    metrics_.write_sheds.Increment();
    return Error(ErrorCode::kOverloaded,
                 "write shed: engine at admission capacity (" +
                     std::to_string(governor_.options().admission_capacity) +
                     " in flight); retry later");
  }
  governor_.BeginExecution();

  // A failed WAL append poisons the store: later writes must not publish
  // over ops that were applied but never made durable.
  if (durable_ != nullptr && durable_->broken()) {
    governor_.EndExecution();
    return Error(ErrorCode::kUnavailable,
                 "durable store is broken after a failed WAL or checkpoint "
                 "write; restart the process to recover");
  }

  std::optional<std::chrono::milliseconds> timeout;
  ResourceBudgets budgets;
  {
    std::lock_guard<std::mutex> lock(graph_mu_);
    timeout = default_timeout_;
    budgets = default_budgets_;
  }
  QueryContext ctx;
  if (timeout.has_value() && timeout->count() > 0) {
    ctx = QueryContext::WithDeadline(std::chrono::steady_clock::now() +
                                     *timeout);
  }
  ctx.set_budgets(budgets);
  const QueryContext* cancel =
      (ctx.deadline().has_value() || budgets.any()) ? &ctx : nullptr;

  MutationManager::ApplyOutcome outcome;
  size_t dropped = 0;
  {
    // apply → invalidate → publish, as one unit: a reader must never see
    // this batch's data while a plan naming a touched label is cacheable.
    std::lock_guard<std::mutex> write_lock(write_mu_);
    outcome = mutation_->Apply(batch, mutation_policy_, cancel);
    if (outcome.ops_applied > 0) {
      if (durable_ != nullptr) {
        // WAL rule: durable before visible. Log exactly the applied prefix
        // (a partial batch publishes its prefix). On failure nothing is
        // published — the ops sit in the overlay behind an unbumped ticket
        // and the sticky broken flag keeps every later write out, so the
        // unlogged state can never reach a reader or a checkpoint.
        std::vector<MutationOp> logged(
            batch.ops.begin(),
            batch.ops.begin() + static_cast<ptrdiff_t>(outcome.ops_applied));
        Result<uint64_t> lsn = durable_->AppendBatch(logged);
        if (!lsn.ok()) {
          governor_.EndExecution();
          return Error(lsn.error().code(),
                       "write not acknowledged: " + lsn.error().message());
        }
        pending_records_.push_back(
            storage::WalRecord{lsn.value(), std::move(logged)});
      }
      metrics_.write_batches.Increment();
      metrics_.write_ops.Increment(outcome.ops_applied);
      if (!outcome.touched_labels.empty() ||
          !outcome.touched_properties.empty()) {
        invalidation_version_.fetch_add(1, std::memory_order_acq_rel);
        dropped = cache_.InvalidateDeps(outcome.touched_labels,
                                        outcome.touched_properties);
        metrics_.plan_invalidations_scoped.Increment();
        if (dropped > 0) metrics_.plans_invalidated.Increment(dropped);
      }
      mutation_->Publish();
    }
    metrics_.delta_pending_ops.Set(outcome.pending_ops);
  }
  governor_.EndExecution();

  bool scheduled = false;
  if (outcome.want_compaction) {
    if (mutation_policy_.background_compaction) {
      scheduled = pool_.Submit([this] { RunCompaction(); });
    } else {
      scheduled = CompactNow();
    }
  }

  if (!outcome.applied.ok()) return outcome.applied.error();
  MutationResult result;
  result.applied = outcome.applied.value();
  result.pending_ops = outcome.pending_ops;
  result.plans_invalidated = dropped;
  result.compaction_scheduled = scheduled;
  return result;
}

bool QueryEngine::CompactNow() { return RunCompaction(); }

bool QueryEngine::RunCompaction() {
  // A broken store must not fold: compaction rewrites the WAL, and the
  // overlay may still hold ops whose append failed — folding them in would
  // publish never-logged state as durable.
  if (durable_ != nullptr && durable_->broken()) return false;
  const uint64_t generation =
      durable_generation_.load(std::memory_order_acquire);
  MutationManager::CompactReport report;
  if (!mutation_->Compact(&report)) return false;
  metrics_.compactions_run.Increment();
  metrics_.delta_pending_ops.Set(mutation_->GetInfo().pending_ops);
  if (durable_ != nullptr) PersistCheckpoint(report, generation);
  return true;
}

void QueryEngine::PersistCheckpoint(
    const MutationManager::CompactReport& report, uint64_t generation) {
  std::lock_guard<std::mutex> lock(write_mu_);
  if (durable_ == nullptr || durable_->broken()) return;
  if (durable_generation_.load(std::memory_order_acquire) != generation) {
    return;  // SetGraph restarted the ledger while we folded
  }
  if (report.total_ops_folded <= checkpointed_ops_) {
    return;  // a later fold already checkpointed past this one
  }
  // Applies and their WAL appends serialize under write_mu_, so a fold
  // boundary always lands on a record boundary: pop whole records until
  // the op ledgers agree, and the last popped LSN is what the checkpoint
  // covers.
  uint64_t covered_lsn = durable_checkpoint_lsn_;
  while (checkpointed_ops_ < report.total_ops_folded) {
    assert(!pending_records_.empty() &&
           "fold ledger ahead of the WAL record ledger");
    if (pending_records_.empty()) return;
    checkpointed_ops_ += pending_records_.front().ops.size();
    covered_lsn = pending_records_.front().lsn;
    pending_records_.pop_front();
  }
  std::vector<storage::WalRecord> residual(pending_records_.begin(),
                                           pending_records_.end());
  Result<bool> written =
      durable_->WriteCheckpoint(*report.base, covered_lsn, residual);
  if (written.ok()) durable_checkpoint_lsn_ = covered_lsn;
}

std::future<Result<QueryResponse>> QueryEngine::Submit(QueryRequest request) {
  auto promise = std::make_shared<std::promise<Result<QueryResponse>>>();
  std::future<Result<QueryResponse>> future = promise->get_future();
  const auto admitted_at = std::chrono::steady_clock::now();
  const QueryLanguage language = request.language;
  const size_t lang = static_cast<size_t>(language);

  if (Failpoint::ShouldFail("engine.submit") || !governor_.TryAdmit()) {
    metrics_.queries_total.Increment();
    metrics_.RecordLanguage(language);
    metrics_.queries_error.Increment();
    metrics_.overloaded_shed.Increment();
    metrics_.shed_by_language[lang].Increment();
    promise->set_value(
        Error(ErrorCode::kOverloaded,
              "query shed: engine at admission capacity (" +
                  std::to_string(governor_.options().admission_capacity) +
                  " in flight); retry later"));
    return future;
  }
  metrics_.queue_depth_high_water.Update(governor_.high_water());

  bool accepted =
      pool_.Submit([this, promise, admitted_at,
                    request = std::move(request)]() {
        governor_.BeginExecution();
        Result<QueryResponse> result = ExecuteFrom(request, admitted_at);
        // Free the slot before fulfilling the promise: a caller observing
        // the future must see the query's admission already released.
        governor_.EndExecution();
        promise->set_value(std::move(result));
      });
  if (!accepted) {
    governor_.CancelAdmission();
    metrics_.queries_total.Increment();
    metrics_.RecordLanguage(language);
    metrics_.queries_error.Increment();
    promise->set_value(Error(ErrorCode::kUnavailable,
                             "engine thread pool is shut down"));
  }
  return future;
}

Result<QueryResponse> QueryEngine::ExecutePlan(
    const Plan& plan, const PropertyGraph& g, const GraphSnapshot& snapshot,
    const QueryRequest& request, const CancellationToken* cancel) {
  QueryResponse response;
  ChunkedResultWriter out(request.sink, cancel);
  // Execution-time policy: per-request overrides win over engine defaults.
  const bool use_wcoj = request.use_wcoj.value_or(use_wcoj_);
  const bool use_batch = request.use_batch_kernel.value_or(use_batch_kernel_);
  auto count_wcoj = [&] {
    metrics_.wcoj_by_language[static_cast<size_t>(request.language)]
        .Increment();
  };

  if (const auto* rpq = std::get_if<RpqPlan>(&plan.compiled)) {
    ParallelRpqOptions rpq_options;
    rpq_options.pool = &pool_;
    rpq_options.num_shards = rpq_shards_;
    rpq_options.cancel = cancel;
    auto pairs = EvalRpqParallel(snapshot, rpq->nfa, rpq_options);
    size_t shown = 0;
    for (const auto& [u, v] : pairs) {
      if (out.abandoned()) break;
      if (shown++ >= request.max_display_rows) {
        out << "  ... (" << pairs.size() << " pairs total)\n";
        break;
      }
      out << "  (" << g.NodeName(u) << ", " << g.NodeName(v) << ")\n";
      out.EndRow();
    }
    out << pairs.size() << " pairs\n";
    response.num_rows = pairs.size();

  } else if (const auto* crpq = std::get_if<CrpqPlan>(&plan.compiled)) {
    CrpqEvalOptions options;
    if (request.max_results) options.max_bindings_per_pair = *request.max_results;
    if (request.max_path_length) options.max_path_length = *request.max_path_length;
    options.cancel = cancel;
    options.snapshot = &snapshot;
    options.pool = &pool_;
    options.num_shards = rpq_shards_;
    options.atom_nfas = &crpq->atom_nfas;
    if (!request.textual_join_order) options.join_order = &crpq->join_order;
    options.use_batch = use_batch;
    if (use_wcoj && crpq->wcoj.has_value()) {
      options.wcoj = &*crpq->wcoj;
      count_wcoj();
    }
    Result<CrpqResult> r = EvalCrpq(g.skeleton(), crpq->query, options);
    if (!r.ok()) return r.error();
    out << r.value().ToString(g.skeleton());
    out.EndRow();
    out << r.value().rows.size() << " rows"
        << (r.value().truncated ? " (truncated)" : "") << "\n";
    response.num_rows = r.value().rows.size();
    response.truncated = r.value().truncated;
    if (use_batch) metrics_.batch_rows.Increment(response.num_rows);

  } else if (const auto* dl = std::get_if<DlCrpqPlan>(&plan.compiled)) {
    DlCrpqEvalOptions options;
    if (request.max_results) options.max_bindings_per_pair = *request.max_results;
    if (request.max_path_length) options.max_path_length = *request.max_path_length;
    options.cancel = cancel;
    options.snapshot = &snapshot;
    options.atom_nfas = &dl->atom_nfas;
    if (!request.textual_join_order) options.join_order = &dl->join_order;
    options.use_batch = use_batch;
    if (use_wcoj && dl->wcoj.has_value()) {
      options.wcoj = &*dl->wcoj;
      count_wcoj();
    }
    Result<CrpqResult> r = EvalDlCrpq(g, dl->query, options);
    if (!r.ok()) return r.error();
    out << r.value().ToString(g.skeleton());
    out.EndRow();
    out << r.value().rows.size() << " rows"
        << (r.value().truncated ? " (truncated)" : "") << "\n";
    response.num_rows = r.value().rows.size();
    response.truncated = r.value().truncated;
    if (use_batch) metrics_.batch_rows.Increment(response.num_rows);

  } else if (const auto* gql = std::get_if<CoreGqlPlan>(&plan.compiled)) {
    CoreQueryEvalOptions options;
    if (request.max_path_length) {
      options.path_options.max_path_length = *request.max_path_length;
    }
    if (request.max_results) options.path_options.max_results = *request.max_results;
    options.path_options.cancel = cancel;
    options.path_options.snapshot = &snapshot;
    if (!request.textual_join_order) options.block_orders = &gql->block_orders;
    options.use_batch = use_batch;
    if (use_wcoj && !gql->block_wcoj.empty()) {
      options.block_wcoj = &gql->block_wcoj;
      for (const auto& spec : gql->block_wcoj) {
        if (spec.has_value()) {
          count_wcoj();
          break;
        }
      }
    }
    Result<CoreQueryResult> r = EvalCoreGqlQuery(g, gql->query, options);
    if (!r.ok()) return r.error();
    if (gql->optimized) {
      out << "(pushdown: " << gql->pushdown.labels_pushed << " labels, "
          << gql->pushdown.selections_pushed << " selections)\n";
    }
    out << r.value().relation.ToString(g.skeleton());
    out.EndRow();
    out << r.value().relation.NumRows() << " rows"
        << (r.value().truncated ? " (truncated)" : "") << "\n";
    response.num_rows = r.value().relation.NumRows();
    response.truncated = r.value().truncated;
    if (use_batch) metrics_.batch_rows.Increment(response.num_rows);

  } else if (const auto* group = std::get_if<GqlGroupPlan>(&plan.compiled)) {
    CorePathEvalOptions options;
    if (request.max_path_length) options.max_path_length = *request.max_path_length;
    if (request.max_results) options.max_results = *request.max_results;
    options.cancel = cancel;
    options.snapshot = &snapshot;
    Result<GqlEvalResult> r = EvalGqlGroupPattern(g, *group->pattern, options);
    if (!r.ok()) return r.error();
    size_t shown = 0;
    for (const GqlPathRow& row : r.value().rows) {
      if (out.abandoned()) break;
      if (++shown > request.max_display_rows) {
        out << "  ... (" << r.value().rows.size() << " rows total)\n";
        break;
      }
      out << "  " << row.path.ToString(g.skeleton());
      for (const auto& [var, value] : row.mu) {
        out << "  " << var << " -> " << value.ToString(g.skeleton());
      }
      out << "\n";
      out.EndRow();
    }
    out << r.value().rows.size() << " rows"
        << (r.value().truncated ? " (truncated)" : "") << "\n";
    response.num_rows = r.value().rows.size();
    response.truncated = r.value().truncated;

  } else if (const auto* regular = std::get_if<RegularPlan>(&plan.compiled)) {
    CrpqEvalOptions options;
    if (request.max_results) options.max_bindings_per_pair = *request.max_results;
    if (request.max_path_length) options.max_path_length = *request.max_path_length;
    options.cancel = cancel;
    // Regular queries evaluate against a mutable working copy of the graph
    // (rules add edges), which no cached CSR describes; EvalRegularQuery
    // snapshots the working copy itself.
    Result<CrpqResult> r = EvalRegularQuery(g.skeleton(), regular->query, options);
    if (!r.ok()) return r.error();
    out << r.value().ToString(g.skeleton());
    out.EndRow();
    out << r.value().rows.size() << " rows"
        << (r.value().truncated ? " (truncated)" : "") << "\n";
    response.num_rows = r.value().rows.size();
    response.truncated = r.value().truncated;

  } else if (const auto* paths = std::get_if<PathsPlan>(&plan.compiled)) {
    std::optional<NodeId> u = g.FindNode(request.paths.from);
    if (!u.has_value()) {
      return Error(ErrorCode::kNotFound,
                   "unknown node '" + request.paths.from + "'");
    }
    std::optional<NodeId> v = g.FindNode(request.paths.to);
    if (!v.has_value()) {
      return Error(ErrorCode::kNotFound,
                   "unknown node '" + request.paths.to + "'");
    }

    if (request.paths.k_shortest > 0) {
      if (!paths->nfa.has_value() || paths->nfa->HasInverse()) {
        return Error(ErrorCode::kInvalidArgument,
                     "kshortest requires a plain one-way regex");
      }
      Pmr pmr = BuildPmrBetween(snapshot, *paths->nfa, *u, *v);
      std::vector<PathBinding> results =
          KShortestPathBindings(pmr, request.paths.k_shortest, cancel);
      size_t shown = 0;
      for (const PathBinding& pb : results) {
        if (out.abandoned()) break;
        if (shown++ >= request.max_display_rows) {
          out << "  ... (" << results.size() << " paths total)\n";
          break;
        }
        out << "  [len " << pb.path.Length() << "] "
            << pb.path.ToString(g.skeleton()) << "\n";
        out.EndRow();
      }
      out << results.size() << " paths\n";
      response.num_rows = results.size();
    } else {
      if (paths->nfa.has_value() && paths->nfa->HasInverse()) {
        // PMRs and the simple/trail search are one-way; an inverse atom
        // would be silently treated as forward (or trip a PMR assert).
        return Error(ErrorCode::kInvalidArgument,
                     "path enumeration requires a one-way regex");
      }
      EnumerationLimits limits;
      limits.max_results = request.max_results.value_or(50);
      limits.max_length = request.max_path_length.value_or(32);
      limits.cancel = cancel;
      EnumerationStats stats;
      std::vector<PathBinding> results;
      if (paths->dl_nfa.has_value()) {
        DlEvaluator evaluator(g, *paths->dl_nfa, &snapshot);
        results = evaluator.CollectModePaths(*u, *v, request.paths.mode,
                                             limits, &stats);
      } else {
        results = CollectModePaths(snapshot, *paths->nfa, *u, *v,
                                   request.paths.mode, limits, &stats);
      }
      size_t shown = 0;
      for (const PathBinding& pb : results) {
        if (out.abandoned()) break;
        if (shown++ >= request.max_display_rows) {
          out << "  ... (" << results.size() << " paths total)\n";
          break;
        }
        out << "  " << pb.path.ToString(g.skeleton());
        if (!pb.mu.lists.empty()) {
          out << "  " << pb.mu.ToString(g.skeleton());
        }
        out << "\n";
        out.EndRow();
      }
      out << results.size() << " paths"
          << (stats.truncated ? " (truncated)" : "") << "\n";
      response.num_rows = results.size();
      response.truncated = stats.truncated;
    }
  } else {
    return Error(ErrorCode::kInvalidArgument, "unsupported plan kind");
  }

  response.text = out.Finish();
  return response;
}

std::string QueryEngine::StatsReport() const {
  std::string out = metrics_.ReportText();
  PlanCache::Stats s = cache_.GetStats();
  char line[160];
  snprintf(line, sizeof(line),
           "plan_cache     entries %zu  hits %llu  misses %llu  "
           "evictions %llu  (%zu shards x %zu)\n",
           s.entries, static_cast<unsigned long long>(s.hits),
           static_cast<unsigned long long>(s.misses),
           static_cast<unsigned long long>(s.evictions), cache_.num_shards(),
           cache_.capacity_per_shard());
  out += line;
  snprintf(line, sizeof(line),
           "governor       in_flight %zu  high_water %zu  shed %llu  "
           "(capacity %zu, max_concurrent %zu)\n",
           governor_.in_flight(), governor_.high_water(),
           static_cast<unsigned long long>(governor_.shed_total()),
           governor_.options().admission_capacity,
           governor_.options().max_concurrent);
  out += line;
  MutationManager::Info delta = mutation_->GetInfo();
  snprintf(line, sizeof(line),
           "delta          pending_ops %llu  ~%zu bytes  compactions %llu  "
           "base_resets %llu\n",
           static_cast<unsigned long long>(delta.pending_ops),
           delta.approx_delta_bytes,
           static_cast<unsigned long long>(delta.compactions),
           static_cast<unsigned long long>(delta.base_resets));
  out += line;
  if (durable_ != nullptr) {
    std::lock_guard<std::mutex> lock(write_mu_);
    snprintf(line, sizeof(line),
             "durable        wal_records %llu  wal_bytes %llu  syncs %llu  "
             "checkpoints %llu  ckpt_lsn %llu%s\n",
             static_cast<unsigned long long>(durable_->wal_records()),
             static_cast<unsigned long long>(durable_->wal_bytes()),
             static_cast<unsigned long long>(durable_->wal_syncs()),
             static_cast<unsigned long long>(durable_->checkpoints_written()),
             static_cast<unsigned long long>(durable_->checkpoint_lsn()),
             durable_->broken() ? "  BROKEN" : "");
    out += line;
  }
  out += "threads        " + std::to_string(pool_.num_threads()) + "\n";
  return out;
}

}  // namespace gqzoo
