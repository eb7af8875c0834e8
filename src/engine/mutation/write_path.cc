#include "src/engine/mutation/write_path.h"

#include <cassert>
#include <utility>

namespace gqzoo {

MutationManager::MutationManager(
    std::shared_ptr<const PropertyGraph> base,
    std::shared_ptr<const GraphSnapshot> base_snapshot,
    std::shared_ptr<const SnapshotStats> base_stats)
    : base_(std::move(base)),
      base_snapshot_(std::move(base_snapshot)),
      base_stats_(std::move(base_stats)) {}

bool MutationManager::WantCompaction(const MutationPolicy& policy) const {
  if (overlay_ == nullptr || overlay_->seq() == 0) return false;
  if (policy.compact_min_ops > 0 && overlay_->seq() >= policy.compact_min_ops) {
    return true;
  }
  if (policy.compact_ratio > 0) {
    const size_t churn =
        overlay_->alive_added_nodes() + overlay_->alive_added_edges() +
        overlay_->removed_base_nodes() + overlay_->removed_base_edges();
    const size_t base_size =
        base_->skeleton().NumNodes() + base_->NumEdges();
    if (static_cast<double>(churn) >=
        policy.compact_ratio * static_cast<double>(base_size)) {
      return true;
    }
  }
  return false;
}

MutationManager::ApplyOutcome MutationManager::Apply(
    const MutationBatch& batch, const MutationPolicy& policy,
    const QueryContext* ctx) {
  ApplyOutcome out;
  std::lock_guard<std::mutex> lock(mu_);
  if (overlay_ == nullptr) {
    overlay_ = std::make_unique<DeltaOverlay>(base_, *base_snapshot_);
  }
  const uint64_t before = overlay_->seq();
  out.applied = overlay_->Apply(batch, ctx);
  out.ops_applied = overlay_->seq() - before;
  out.pending_ops = overlay_->seq();
  if (overlay_->seq() != before) {
    memo_ = View{};
    memo_valid_ = false;
    // No ticket bump here: the engine logs the ops first, then calls
    // Publish() — readers must never see ops that are not yet durable.
  }
  out.want_compaction = WantCompaction(policy);
  return out;
}

void MutationManager::Publish() {
  std::lock_guard<std::mutex> lock(mu_);
  memo_ = View{};
  memo_valid_ = false;
  ticket_.fetch_add(1, std::memory_order_acq_rel);
}

MutationManager::View MutationManager::CurrentView(bool* built_merged) {
  if (built_merged != nullptr) *built_merged = false;
  std::lock_guard<std::mutex> lock(mu_);
  if (memo_valid_) return memo_;
  View v;
  v.ticket = ticket_.load(std::memory_order_acquire);
  if (overlay_ == nullptr || overlay_->seq() == 0) {
    v.graph = base_;
    v.snapshot = base_snapshot_;
    v.stats = base_stats_;
  } else {
    MergedGraph merged = GraphDeltaMerger::Merge(*overlay_);
    v.stats = std::make_shared<const SnapshotStats>(
        *base_stats_, *merged.snapshot, merged.touched_labels);
    v.graph = std::move(merged.graph);
    v.snapshot = std::move(merged.snapshot);
    v.is_merged = true;
    if (built_merged != nullptr) *built_merged = true;
  }
  memo_ = v;
  memo_valid_ = true;
  return v;
}

bool MutationManager::Compact(CompactReport* report) {
  bool expected = false;
  if (!compacting_.compare_exchange_strong(expected, true,
                                           std::memory_order_acq_rel)) {
    return false;  // another fold in flight
  }

  // Capture a consistent (base, log prefix) pair; writers may keep
  // appending while the replay runs.
  std::shared_ptr<const PropertyGraph> base;
  std::shared_ptr<const GraphSnapshot> base_snapshot;
  std::vector<MutationOp> log;
  uint64_t resets_at_capture;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (overlay_ == nullptr || overlay_->seq() == 0) {
      compacting_.store(false, std::memory_order_release);
      return false;
    }
    base = base_;
    base_snapshot = base_snapshot_;
    log = overlay_->log();
    resets_at_capture = resets_;
  }

  // Heavy phase, off-lock: replay the captured prefix into a fresh plain
  // graph and index it. Readers keep using the current (base, overlay).
  auto next = std::make_shared<const PropertyGraph>(
      GraphDeltaMerger::Replay(*base, *base_snapshot, log));
  auto next_snapshot = PinSnapshot(next);
  auto next_stats = std::make_shared<const SnapshotStats>(*next_snapshot);

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (resets_ != resets_at_capture) {
      // SetGraph replaced the base while we replayed; our fold describes a
      // dead generation. Drop it.
      compacting_.store(false, std::memory_order_release);
      return false;
    }
    // Ops that arrived during the replay rebase onto the new base. They
    // were validated against base+prefix, which is exactly what the
    // compacted graph *is* (mutations are name-keyed), so this cannot fail.
    std::unique_ptr<DeltaOverlay> residual;
    if (overlay_->seq() > log.size()) {
      residual = std::make_unique<DeltaOverlay>(next, *next_snapshot);
      MutationBatch rest;
      rest.ops.assign(overlay_->log().begin() +
                          static_cast<ptrdiff_t>(log.size()),
                      overlay_->log().end());
      Result<size_t> replayed = residual->Apply(rest);
      (void)replayed;
      assert(replayed.ok() &&
             "residual ops must replay cleanly onto the compacted base");
    }
    base_ = std::move(next);
    base_snapshot_ = std::move(next_snapshot);
    base_stats_ = std::move(next_stats);
    overlay_ = std::move(residual);
    memo_ = View{};
    memo_valid_ = false;
    ++compactions_;
    total_folded_ops_ += log.size();
    if (report != nullptr) {
      report->base = base_;
      report->total_ops_folded = total_folded_ops_;
    }
    ticket_.fetch_add(1, std::memory_order_acq_rel);
  }
  compacting_.store(false, std::memory_order_release);
  return true;
}

void MutationManager::ResetBase(
    std::shared_ptr<const PropertyGraph> base,
    std::shared_ptr<const GraphSnapshot> base_snapshot,
    std::shared_ptr<const SnapshotStats> base_stats) {
  std::lock_guard<std::mutex> lock(mu_);
  overlay_.reset();
  base_ = std::move(base);
  base_snapshot_ = std::move(base_snapshot);
  base_stats_ = std::move(base_stats);
  memo_ = View{};
  memo_valid_ = false;
  ++resets_;
  // The fold ledger restarts with the adopted base; the engine resets its
  // WAL accounting (and checkpoints the new base) in the same breath.
  total_folded_ops_ = 0;
  ticket_.fetch_add(1, std::memory_order_acq_rel);
}

MutationManager::Info MutationManager::GetInfo() const {
  std::lock_guard<std::mutex> lock(mu_);
  Info info;
  info.pending_ops = overlay_ != nullptr ? overlay_->seq() : 0;
  info.compactions = compactions_;
  info.base_resets = resets_;
  info.approx_delta_bytes = overlay_ != nullptr ? overlay_->ApproxBytes() : 0;
  return info;
}

}  // namespace gqzoo
