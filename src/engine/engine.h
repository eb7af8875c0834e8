#ifndef GQZOO_ENGINE_ENGINE_H_
#define GQZOO_ENGINE_ENGINE_H_

#include <atomic>
#include <chrono>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "src/crpq/crpq.h"
#include "src/engine/executor.h"
#include "src/engine/governor.h"
#include "src/engine/language.h"
#include "src/engine/metrics.h"
#include "src/engine/mutation/write_path.h"
#include "src/engine/plan.h"
#include "src/engine/plan_cache.h"
#include "src/graph/csr.h"
#include "src/graph/delta/delta.h"
#include "src/graph/graph.h"
#include "src/storage/durable.h"
#include "src/util/query_context.h"
#include "src/util/result.h"

namespace gqzoo {

/// Runtime parameters for QueryLanguage::kPaths — not part of the compiled
/// plan (the plan caches the regex + automaton; endpoints and mode vary per
/// request).
struct PathRequestParams {
  std::string from;
  std::string to;
  PathMode mode = PathMode::kAll;
  /// When > 0, stream the k shortest matching paths (plain one-way regexes
  /// only) instead of mode-restricted enumeration.
  size_t k_shortest = 0;
};

/// Receives rendered result rows incrementally as a query executes — the
/// streaming alternative to materializing `QueryResponse::text`. Chunks
/// arrive in order and concatenate to exactly the text a sink-less request
/// would have returned (the network server relies on this byte-identity to
/// stream over the wire what `Execute` would have buffered).
///
/// `Write` is called from whichever thread runs the query (the caller's
/// thread for `Execute`, a pool thread for `Submit`); at most one call is
/// in flight at a time. Returning false abandons the stream: the engine
/// cancels the query (`kCancelled`) and stops delivering chunks — the
/// back-pressure path for a client that disconnected mid-stream.
class RowSink {
 public:
  virtual ~RowSink() = default;
  virtual bool Write(std::string_view chunk) = 0;
};

/// One query for the engine. `language` + `text` identify the plan;
/// everything else is execution-time policy.
struct QueryRequest {
  QueryLanguage language = QueryLanguage::kRpq;
  std::string text;

  /// Per-query deadline; falls back to the engine's default when unset.
  /// Exceeding it returns ErrorCode::kDeadlineExceeded. For `Submit`, the
  /// clock starts at submission, so queue wait counts against it.
  std::optional<std::chrono::milliseconds> timeout;

  /// Per-query resource budgets; each falls back to the engine default
  /// when unset (an explicit 0 means unlimited, overriding the default).
  /// Exceeding any returns ErrorCode::kResourceExhausted with a
  /// structured BudgetReport in the message.
  std::optional<uint64_t> memory_budget;  // accounted bytes
  std::optional<uint64_t> row_budget;     // emitted result rows
  std::optional<uint64_t> step_budget;    // hot-loop iterations (fuel)

  /// Render the plan (conjunct join order + per-atom estimates) instead of
  /// executing it. The plan is still compiled/cached exactly as it would be
  /// for execution.
  bool explain = false;

  /// Overrides for the per-language enumeration limits (defaults preserve
  /// each evaluator's historical limits).
  std::optional<size_t> max_results;
  std::optional<size_t> max_path_length;

  /// Row cap for the rendered `text` of listing-style results (rpq, paths,
  /// gqlgroup); counts are always exact.
  size_t max_display_rows = 50;

  PathRequestParams paths;  // kPaths only

  /// When set, rendered rows are delivered through the sink in chunks as
  /// they are produced and `QueryResponse::text` comes back empty; the
  /// concatenated chunks are byte-identical to the sink-less text. The sink
  /// must outlive the execution (for `Submit`, until the future resolves).
  RowSink* sink = nullptr;

  /// External cancellation: when the pointee becomes true the query trips
  /// with `kCancelled` at its next cooperative poll. The server sets this
  /// from the connection thread when the peer disconnects or sends an
  /// explicit cancel frame while the query runs on a pool thread.
  std::shared_ptr<std::atomic<bool>> cancel;
};

/// A successful query outcome: rendered rows plus execution metadata.
struct QueryResponse {
  std::string text;  // human-readable rows, shell-style (empty when the
                     // request carried a RowSink — the rows went there)
  size_t num_rows = 0;
  bool truncated = false;   // an enumeration limit cut the result short
  bool cache_hit = false;   // plan came from the compiled-plan cache
  std::chrono::microseconds latency{0};
  uint64_t memory_peak_bytes = 0;  // accounted high-water of the evaluation
                                   // (0 when it ran ungoverned)
};

/// The unified query-engine facade: language dispatch, compiled-plan
/// caching, a fixed thread pool, per-query deadlines, and metrics.
///
/// Thread-safety: `Execute` may be called concurrently from any thread
/// (including pool threads via `Submit`); `SetGraph` and `ApplyMutation`
/// may race with executions — in-flight queries keep the graph snapshot
/// they started with alive via shared_ptr, and cache their plans under
/// that snapshot's epoch and vocabulary, where a request pinned to a
/// later view only finds them if they are still valid for it.
class QueryEngine {
 public:
  struct Options {
    /// 0 = hardware concurrency.
    size_t num_threads = 0;
    size_t cache_shards = 8;
    size_t cache_capacity_per_shard = 64;
    /// Applied when a request has no timeout of its own; unset = unbounded.
    std::optional<std::chrono::milliseconds> default_timeout;
    /// Applied when a request has no budget of its own; 0 = unlimited.
    ResourceBudgets default_budgets;
    /// Admission control (see governor.h). Applies to `Submit` only;
    /// direct `Execute` calls are the caller's own thread and bypass it.
    GovernorOptions governor;
    /// Shard count for parallel RPQ evaluation over the CSR snapshot;
    /// 0 = auto (4 shards per participating thread).
    size_t rpq_shards = 0;
    /// Delta-overlay write path: compaction thresholds and scheduling.
    MutationPolicy mutation;
    /// Durability: WAL + checkpoints under `durability.dir`. Empty dir =
    /// RAM-only (the historical behavior). Engines with durability must be
    /// built through `RecoverFrom`, which replays any existing state.
    storage::DurabilityOptions durability;
  };

  explicit QueryEngine(PropertyGraph graph);
  QueryEngine(PropertyGraph graph, Options options);

  /// The durable way in: opens `options.durability.dir`, recovers any
  /// existing checkpoint + WAL state (replacing `initial` — the seed graph
  /// only matters for a fresh directory), and returns an engine whose
  /// writes are logged before they publish. Recovery policy: a torn WAL
  /// tail (crash mid-append) is truncated with a warning in
  /// `recovery_info()`; mid-log corruption or missing files fail with
  /// `kDataLoss` rather than serving a silently incomplete graph. With an
  /// empty `durability.dir` this is just the plain constructor.
  static Result<std::unique_ptr<QueryEngine>> RecoverFrom(
      PropertyGraph initial, Options options);
  /// Teardown order matters twice here. First the WAL is flushed *before*
  /// the pool is torn down: with group commit, acked batches can sit
  /// unsynced waiting for the next append to notice the window elapsed, and
  /// a queued compaction run during shutdown rotates the log — flush the
  /// acked tail while the ledger still describes it. Then the pool drains
  /// before member teardown: queued background compactions capture `this`
  /// and use `mutation_`, which the implicit member-destruction order would
  /// destroy before the pool joins. A final sync covers anything those
  /// shutdown-time compactions appended.
  ~QueryEngine();

  /// Compiles (or fetches from cache) and runs the query on the calling
  /// thread, honoring the deadline cooperatively.
  Result<QueryResponse> Execute(const QueryRequest& request);

  /// Runs the query on the thread pool, subject to admission control: at
  /// capacity the query is shed immediately with `kOverloaded` (the future
  /// is ready at once). The deadline clock starts *here*, so time spent
  /// queued counts against the query. The future never throws; errors
  /// come back as Result errors.
  std::future<Result<QueryResponse>> Submit(QueryRequest request);

  /// Replaces the graph and bumps the epoch, so no cached plan is found
  /// again (stale entries age out of the LRU). Any pending delta is
  /// dropped. In-flight queries finish against the graph they started
  /// with.
  void SetGraph(PropertyGraph graph);

  /// Outcome of `ApplyMutation`.
  struct MutationResult {
    size_t applied = 0;          // ops applied (== batch size on success)
    uint64_t pending_ops = 0;    // delta ops awaiting compaction
    bool compaction_scheduled = false;
  };

  /// Applies a mutation batch through the delta overlay: O(delta) work, no
  /// graph clone, no epoch bump. Readers admitted afterwards see a merged
  /// view layering the delta over the unchanged base; cached plans stay
  /// valid unless the batch interns a new label or property name (see
  /// PlanCacheKey). Writes pass governor admission — under overload the
  /// whole batch is shed with `kOverloaded` — and charge the engine's
  /// default budgets per op. On a mid-batch validation error the valid
  /// prefix stays applied (the error names the failing op).
  Result<MutationResult> ApplyMutation(const MutationBatch& batch);

  /// Synchronously folds any pending delta into a fresh base generation.
  /// Returns false when there was nothing to fold or a background fold is
  /// already running. Query-visible state does not change (merged views
  /// and the compacted base assign identical ids).
  bool CompactNow();

  /// Write-path observability for `stats` in the shell.
  MutationManager::Info delta_info() const { return mutation_->GetInfo(); }

  /// Whether this engine persists writes (built via RecoverFrom with a
  /// durability dir).
  bool durable() const { return durable_ != nullptr; }

  /// What RecoverFrom found on startup (all-defaults for RAM-only engines
  /// and fresh directories).
  const storage::RecoveryInfo& recovery_info() const { return recovery_info_; }

  /// Forces any group-commit-deferred WAL fsync to disk (no-op for
  /// RAM-only engines). The shell calls this on clean exit.
  Result<bool> FlushWal();

  uint64_t graph_epoch() const;
  /// A consistent snapshot (graph, epoch) for read access.
  std::shared_ptr<const PropertyGraph> graph_snapshot() const;
  /// The label-indexed CSR snapshot of the current graph epoch. Holding
  /// the returned pointer also keeps the underlying graph alive.
  std::shared_ptr<const GraphSnapshot> csr_snapshot() const;

  void set_default_timeout(std::optional<std::chrono::milliseconds> t);
  std::optional<std::chrono::milliseconds> default_timeout() const;

  void set_default_budgets(const ResourceBudgets& budgets);
  ResourceBudgets default_budgets() const;

  const ResourceGovernor& governor() const { return governor_; }

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  PlanCache& plan_cache() { return cache_; }

  /// Drops all cached plans (cold-cache benchmarking).
  void ClearPlanCache() { cache_.Clear(); }

  size_t num_threads() const { return pool_.num_threads(); }

  /// Metrics report + plan-cache stats, for `stats` in the shell and the
  /// batch driver's final report.
  std::string StatsReport() const;

 private:
  /// Primary constructor: adopts an already shared graph epoch, optionally
  /// with a prebuilt snapshot/stats pair (the memory-mapped artifacts of
  /// an instant restart). Null snapshot/stats are built here — the public
  /// constructors delegate with nulls.
  QueryEngine(std::shared_ptr<const PropertyGraph> graph, Options options,
              std::shared_ptr<const GraphSnapshot> snapshot,
              std::shared_ptr<const SnapshotStats> stats);

  /// `Execute` with the deadline anchored at `admitted_at` instead of now
  /// — a query that burned its whole deadline waiting in the queue fails
  /// fast with `kDeadlineExceeded`, before compiling or evaluating.
  Result<QueryResponse> ExecuteFrom(const QueryRequest& request,
                                    QueryContext::Clock::time_point
                                        admitted_at);

  Result<QueryResponse> ExecutePlan(const Plan& plan, const PropertyGraph& g,
                                    const GraphSnapshot& snapshot,
                                    const QueryRequest& request,
                                    const CancellationToken* cancel);

  /// Re-publishes (graph_, snapshot_, stats_) from the mutation manager
  /// when its ticket moved past the published one. Fast path: one atomic
  /// load + one mutex'd compare. Called lazily by readers, so pure-read
  /// workloads never pay for the write path.
  void RefreshViewIfStale();

  /// All compaction goes through here: folds the pending delta and, when
  /// durable, checkpoints the folded base + truncates the WAL. Returns
  /// false when there was nothing to fold, a fold was already running, or
  /// the durable store is broken (folding then would publish unlogged
  /// state).
  bool RunCompaction();

  /// The checkpoint half of RunCompaction: pops the WAL ledger up to the
  /// fold's cumulative op count, derives the covered LSN, and writes
  /// checkpoint + rotated WAL. `generation` guards against a SetGraph that
  /// landed between the fold and here.
  void PersistCheckpoint(const MutationManager::CompactReport& report,
                         uint64_t generation);

  mutable std::mutex graph_mu_;
  std::shared_ptr<const PropertyGraph> graph_;
  std::shared_ptr<const GraphSnapshot> snapshot_;  // built from *graph_
  /// Per-label statistics read off `*snapshot_` (same epoch), feeding the
  /// conjunct planner at compile time. Rebuilt with the snapshot.
  std::shared_ptr<const SnapshotStats> stats_;
  uint64_t epoch_ = 0;
  /// Mutation-manager ticket of the published view, and whether that view
  /// layers a pending delta (merged views block kRegular, see ExecuteFrom).
  uint64_t published_ticket_ = 0;
  bool published_merged_ = false;
  size_t rpq_shards_ = 0;
  std::optional<std::chrono::milliseconds> default_timeout_;
  ResourceBudgets default_budgets_;

  PlanCache cache_;
  MetricsRegistry metrics_;
  ResourceGovernor governor_;
  ThreadPool pool_;

  MutationPolicy mutation_policy_;
  std::unique_ptr<MutationManager> mutation_;
  /// Serializes ApplyMutation's apply → log → publish sequence so a
  /// second writer cannot publish a first writer's ops before they are
  /// durable.
  mutable std::mutex write_mu_;

  /// Null for RAM-only engines. All access is serialized under `write_mu_`
  /// except the lock-free `broken()` probe.
  std::unique_ptr<storage::DurableStore> durable_;
  storage::RecoveryInfo recovery_info_;
  /// The WAL ledger: records appended since the last checkpoint, in LSN
  /// order (guarded by write_mu_). PersistCheckpoint pops the folded
  /// prefix; what remains becomes the rotated WAL's residual.
  std::deque<storage::WalRecord> pending_records_;
  /// Ops covered by the last checkpoint, in the mutation manager's
  /// cumulative-fold units (guarded by write_mu_).
  uint64_t checkpointed_ops_ = 0;
  uint64_t durable_checkpoint_lsn_ = 0;  // guarded by write_mu_
  /// Bumped by SetGraph; a compaction captured before the bump must not
  /// checkpoint (its fold ledger describes the dead generation).
  std::atomic<uint64_t> durable_generation_{0};
};

}  // namespace gqzoo

#endif  // GQZOO_ENGINE_ENGINE_H_
