#ifndef GQZOO_ENGINE_MUTATION_WRITE_PATH_H_
#define GQZOO_ENGINE_MUTATION_WRITE_PATH_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/graph/csr.h"
#include "src/graph/delta/delta.h"
#include "src/graph/delta/merge.h"
#include "src/graph/graph.h"
#include "src/planner/stats.h"
#include "src/util/query_context.h"
#include "src/util/result.h"

namespace gqzoo {

/// When the write path folds the overlay into a fresh base: once the op log
/// reaches `compact_min_ops`, or once the delta's churn (added + removed
/// elements) exceeds `compact_ratio` of the base size. The engine schedules
/// the fold on its thread pool when `background_compaction` is set, else
/// compacts synchronously inside `ApplyMutation`.
struct MutationPolicy {
  size_t compact_min_ops = 4096;
  double compact_ratio = 0.25;
  bool background_compaction = true;
};

/// Epoch-MVCC write path: owns the live `DeltaOverlay` over the current
/// base generation and hands out consistent pinned views.
///
/// Invariants:
///  * Readers pin a `(base generation, delta sequence)` pair as three
///    shared_ptrs (graph / snapshot / stats); nothing a reader holds is
///    ever mutated or freed under it — writers append to the overlay and
///    the *next* view is a fresh merge.
///  * `ticket` increases on every reader-visible state change (publish
///    after apply, compact, reset); the engine caches the last view it
///    published and rebuilds only when the ticket moved, so the read fast
///    path is one atomic load.
///  * Compaction replays the op log against the base *off-lock*, then
///    republishes only if no `ResetBase` intervened; ops applied during the
///    replay survive as a residual overlay on the new base (mutations are
///    name-keyed, so replaying them against the compacted graph is exact).
///  * Merged views and compacted bases assign identical ids
///    (GraphDeltaMerger), so a compaction changes no query-visible state —
///    not even rendered output — and cached plans stay valid across it.
class MutationManager {
 public:
  /// A consistent pinned read view. `is_merged` is true when the view
  /// layers a pending delta (overlay-mode graph); regular queries cannot
  /// run on such a view (they mutate a working copy of the skeleton) and
  /// must force a compaction first.
  struct View {
    std::shared_ptr<const PropertyGraph> graph;
    std::shared_ptr<const GraphSnapshot> snapshot;
    std::shared_ptr<const SnapshotStats> stats;
    bool is_merged = false;
    uint64_t ticket = 0;
  };

  struct ApplyOutcome {
    Result<size_t> applied = 0;  // ops applied; prefix stays on error
    uint64_t ops_applied = 0;    // prefix length, valid even on error
    uint64_t pending_ops = 0;    // overlay op count after this batch
    bool want_compaction = false;  // policy threshold crossed
  };

  struct Info {
    uint64_t pending_ops = 0;
    uint64_t compactions = 0;
    uint64_t base_resets = 0;
    size_t approx_delta_bytes = 0;
  };

  /// What a successful `Compact` folded — the durability hook. The engine
  /// pairs `total_ops_folded` (cumulative applied ops now inside `base`,
  /// since construction or the last ResetBase) with its per-batch WAL
  /// ledger to find the covered LSN, then checkpoints `base` and truncates
  /// the log. Cumulative rather than per-fold so late or out-of-order
  /// checkpoint attempts are detectable as stale (total ≤ already covered).
  struct CompactReport {
    std::shared_ptr<const PropertyGraph> base;
    uint64_t total_ops_folded = 0;
  };

  MutationManager(std::shared_ptr<const PropertyGraph> base,
                  std::shared_ptr<const GraphSnapshot> base_snapshot,
                  std::shared_ptr<const SnapshotStats> base_stats);

  MutationManager(const MutationManager&) = delete;
  MutationManager& operator=(const MutationManager&) = delete;

  /// Applies `batch` to the live overlay (creating it lazily). `ctx`, when
  /// set, charges write budgets per op. Serialized internally. Does NOT
  /// advance the reader-visible ticket — the caller logs the applied ops
  /// first and then calls `Publish()`, so no reader sees ops that are not
  /// yet durable.
  ApplyOutcome Apply(const MutationBatch& batch, const MutationPolicy& policy,
                     const QueryContext* ctx = nullptr);

  /// Makes the effects of preceding `Apply` calls visible to the engine's
  /// read fast path (advances the ticket).
  void Publish();

  /// The current consistent view; memoized per ticket, so consecutive
  /// reads without interleaved writes build the merged view once.
  /// `built_merged`, when set, reports whether this call actually
  /// constructed a merge (metrics).
  View CurrentView(bool* built_merged = nullptr);

  /// Folds the pending overlay into a fresh base generation. Returns false
  /// when there was nothing to fold or another fold is already running.
  /// Heavy phase (log replay + CSR + stats) runs outside the lock.
  /// `report`, when set, receives the new base and the cumulative fold
  /// count on success (untouched on false).
  bool Compact(CompactReport* report = nullptr);

  /// Adopts an externally supplied base (SetGraph), dropping any pending
  /// delta and aborting any in-flight compaction's publish.
  void ResetBase(std::shared_ptr<const PropertyGraph> base,
                 std::shared_ptr<const GraphSnapshot> base_snapshot,
                 std::shared_ptr<const SnapshotStats> base_stats);

  /// Lock-free staleness probe for the engine's published-view fast path.
  uint64_t ticket() const { return ticket_.load(std::memory_order_acquire); }

  Info GetInfo() const;

 private:
  bool WantCompaction(const MutationPolicy& policy) const;  // mu_ held

  mutable std::mutex mu_;
  std::shared_ptr<const PropertyGraph> base_;
  std::shared_ptr<const GraphSnapshot> base_snapshot_;
  std::shared_ptr<const SnapshotStats> base_stats_;
  // Null when no pending delta; borrows *base_snapshot_.
  std::unique_ptr<DeltaOverlay> overlay_;
  /// Memoized merged view for the current ticket; invalidated by writes.
  View memo_;
  bool memo_valid_ = false;
  uint64_t compactions_ = 0;
  uint64_t resets_ = 0;  // ResetBase count; compaction aborts on change
  /// Cumulative ops folded into `base_` by compactions since construction
  /// or the last ResetBase (CompactReport::total_ops_folded).
  uint64_t total_folded_ops_ = 0;
  std::atomic<uint64_t> ticket_{1};
  std::atomic<bool> compacting_{false};
};

}  // namespace gqzoo

#endif  // GQZOO_ENGINE_MUTATION_WRITE_PATH_H_
