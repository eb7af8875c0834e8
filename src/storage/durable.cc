#include "src/storage/durable.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "src/graph/delta/merge.h"
#include "src/storage/snapshot_format.h"
#include "src/util/failpoint.h"

namespace gqzoo::storage {

namespace {

constexpr char kWalFileName[] = "wal.log";
// Checkpoint files are snapshot-format files (snapshot_format.h) whose
// META region carries the covered LSN: the durable base a crash recovers
// from is also the image a restart can map in place. The codec is
// id-faithful (labels and properties re-intern in id order), which the
// crash harness relies on to compare recovered renders byte-for-byte. A
// checkpoint covering lsn C pairs with a WAL holding records > C.
constexpr char kCheckpointPrefix[] = "checkpoint-";

struct CheckpointFile {
  uint64_t covered_lsn;
  std::string path;
};

// checkpoint-<decimal covered_lsn>, nothing else.
bool ParseCheckpointName(const std::string& name, uint64_t* covered_lsn) {
  constexpr size_t kPrefixLen = sizeof(kCheckpointPrefix) - 1;
  if (name.compare(0, kPrefixLen, kCheckpointPrefix) != 0) return false;
  if (name.size() == kPrefixLen) return false;
  uint64_t v = 0;
  for (size_t i = kPrefixLen; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    v = v * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  *covered_lsn = v;
  return true;
}

// All checkpoint files in `dir`, newest (highest covered_lsn) first.
std::vector<CheckpointFile> ListCheckpoints(const std::string& dir) {
  std::vector<CheckpointFile> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    uint64_t lsn = 0;
    if (ParseCheckpointName(entry.path().filename().string(), &lsn)) {
      out.push_back({lsn, entry.path().string()});
    }
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.covered_lsn > b.covered_lsn;
  });
  return out;
}

void AppendWarning(std::string* warning, const std::string& note) {
  if (!warning->empty()) *warning += "; ";
  *warning += note;
}

}  // namespace

DurableStore::DurableStore(DurabilityOptions options)
    : options_(std::move(options)),
      wal_path_(options_.dir + "/" + kWalFileName) {}

Result<DurableStore::Opened> DurableStore::Open(
    const DurabilityOptions& options, PropertyGraph initial) {
  std::error_code ec;
  std::filesystem::create_directories(options.dir, ec);
  if (ec) {
    return Error(ErrorCode::kUnavailable, "cannot create durability dir '" +
                                              options.dir +
                                              "': " + ec.message());
  }

  std::unique_ptr<DurableStore> store(new DurableStore(options));
  std::vector<CheckpointFile> ckpts = ListCheckpoints(options.dir);
  Result<std::string> wal_bytes = ReadFileBytes(store->wal_path_);

  if (ckpts.empty()) {
    // Fresh directory — or a crash before initialization finished. The
    // init order is WAL first, checkpoint second, so the only legal
    // leftover here is an empty-or-magic-prefix wal.log; a WAL carrying
    // real records with no checkpoint means acked writes lost their base.
    if (wal_bytes.ok()) {
      const std::string& b = wal_bytes.value();
      std::string header = WalFileHeader();
      bool init_artifact =
          b.size() <= header.size() &&
          std::memcmp(b.data(), header.data(), b.size()) == 0;
      if (!init_artifact) {
        Result<WalDecodeResult> dec = DecodeWal(b);
        if (!dec.ok()) {
          return Error(ErrorCode::kDataLoss,
                       "durability dir '" + options.dir +
                           "' holds a WAL but no checkpoint, and the WAL "
                           "does not decode: " +
                           dec.error().message());
        }
        if (!dec.value().records.empty()) {
          return Error(ErrorCode::kDataLoss,
                       "durability dir '" + options.dir +
                           "' holds a WAL with " +
                           std::to_string(dec.value().records.size()) +
                           " records but no checkpoint to replay them onto");
        }
      }
    } else if (wal_bytes.error().code() != ErrorCode::kNotFound) {
      return wal_bytes.error();
    }
    Result<std::unique_ptr<WalFile>> wal = WalFile::Create(store->wal_path_);
    if (!wal.ok()) return wal.error();
    store->wal_ = std::move(wal).value();
    Result<bool> synced = SyncDirOf(store->wal_path_);
    if (!synced.ok()) return synced.error();
    Result<bool> ck = store->WriteCheckpoint(initial, 0, {});
    if (!ck.ok()) return ck.error();
    Opened out;
    out.store = std::move(store);
    out.graph = std::make_shared<const PropertyGraph>(std::move(initial));
    return out;
  }

  // --- Recovery ---
  RecoveryInfo info;
  info.recovered = true;
  if (!wal_bytes.ok()) {
    if (wal_bytes.error().code() == ErrorCode::kNotFound) {
      return Error(ErrorCode::kDataLoss,
                   "durability dir '" + options.dir +
                       "' holds checkpoints but no wal.log — half of the "
                       "durable state is missing");
    }
    return wal_bytes.error();
  }
  Result<WalDecodeResult> dec = DecodeWal(wal_bytes.value());
  if (!dec.ok()) return dec.error();
  WalDecodeResult wal = std::move(dec).value();
  if (wal.tail == WalTail::kTorn) {
    info.tail_truncated = true;
    AppendWarning(&info.warning, wal.warning);
  }

  // Instant restart: a clean shutdown leaves an empty WAL and a newest
  // checkpoint that covers everything, so there is nothing to replay —
  // mmap the checkpoint and serve it in place. Startup cost is the
  // checksum verification pass, not an O(|E|) rebuild, and the graph pages
  // in on demand. Any failure here (unmappable file, bad checksum, hostile
  // structure) drops through to the decode-and-rebuild path below, which
  // also knows how to fall back to older checkpoints.
  if (options.map_checkpoints && wal.records.empty() &&
      wal.tail == WalTail::kClean) {
    Result<SnapshotFile> mapped_file =
        SnapshotFile::OpenMapped(ckpts.front().path);
    Result<MappedGraph> mapped =
        mapped_file.ok() ? SnapshotCodec::Open(std::move(mapped_file).value())
                         : mapped_file.error();
    if (mapped.ok()) {
      MappedGraph m = std::move(mapped).value();
      info.checkpoint_lsn = m.covered_lsn;
      info.last_lsn = m.covered_lsn;
      info.mapped = true;
      Result<std::unique_ptr<WalFile>> wal_handle =
          WalFile::OpenForAppend(store->wal_path_, wal.valid_bytes);
      if (!wal_handle.ok()) return wal_handle.error();
      store->wal_ = std::move(wal_handle).value();
      store->next_lsn_ = m.covered_lsn + 1;
      store->checkpoint_lsn_ = m.covered_lsn;
      Opened out;
      out.graph = std::move(m.graph);
      out.snapshot = std::move(m.snapshot);
      out.stats = std::move(m.stats);
      out.info = std::move(info);
      out.store = std::move(store);
      return out;
    }
    AppendWarning(&info.warning, "mmap fast path unavailable (" +
                                     ckpts.front().path + ": " +
                                     mapped.error().message() +
                                     "); rebuilding");
  }

  // Newest checkpoint that decodes wins; unreadable ones are warned about
  // and skipped (LSN continuity below catches the case where the skipped
  // one was load-bearing).
  SnapshotCodec::DecodedSnapshot ckpt;
  bool have_ckpt = false;
  for (const CheckpointFile& cf : ckpts) {
    Result<std::string> bytes = ReadFileBytes(cf.path);
    if (!bytes.ok()) {
      AppendWarning(&info.warning, cf.path + ": " + bytes.error().message());
      continue;
    }
    Result<SnapshotCodec::DecodedSnapshot> d =
        SnapshotCodec::DecodeToPlain(bytes.value());
    if (!d.ok()) {
      AppendWarning(&info.warning, cf.path + ": " + d.error().message());
      continue;
    }
    ckpt = std::move(d).value();
    have_ckpt = true;
    break;
  }
  if (!have_ckpt) {
    return Error(ErrorCode::kDataLoss,
                 "no checkpoint in '" + options.dir +
                     "' decodes (" + info.warning + ")");
  }
  info.checkpoint_lsn = ckpt.covered_lsn;

  auto base = std::make_shared<const PropertyGraph>(std::move(ckpt.graph));
  DeltaOverlay overlay(base);
  uint64_t last_lsn = ckpt.covered_lsn;
  for (const WalRecord& rec : wal.records) {
    if (rec.lsn <= ckpt.covered_lsn) continue;  // pre-rotation leftover
    if (rec.lsn != last_lsn + 1) {
      return Error(ErrorCode::kDataLoss,
                   "WAL jumps from lsn " + std::to_string(last_lsn) +
                       " to lsn " + std::to_string(rec.lsn) +
                       " — records between them are gone");
    }
    MutationBatch batch;
    batch.ops = rec.ops;
    Result<size_t> applied = overlay.Apply(batch, nullptr, nullptr);
    if (!applied.ok() || applied.value() != rec.ops.size()) {
      return Error(ErrorCode::kDataLoss,
                   "logged batch lsn " + std::to_string(rec.lsn) +
                       " fails to replay" +
                       (applied.ok() ? std::string(" completely")
                                     : ": " + applied.error().message()));
    }
    last_lsn = rec.lsn;
    ++info.batches_replayed;
    info.ops_replayed += rec.ops.size();
  }
  info.last_lsn = last_lsn;

  Result<std::unique_ptr<WalFile>> reopened =
      WalFile::OpenForAppend(store->wal_path_, wal.valid_bytes);
  if (!reopened.ok()) return reopened.error();
  store->wal_ = std::move(reopened).value();
  store->next_lsn_ = last_lsn + 1;
  store->checkpoint_lsn_ = ckpt.covered_lsn;

  // Materialize through the merger even when nothing replayed: its
  // base-id-order preseeding keeps every interner id — and therefore every
  // rendered byte — identical to the pre-crash state.
  PropertyGraph rebuilt = GraphDeltaMerger::Materialize(overlay);

  // Checkpoint-on-recovery: fold the replayed state and truncate the log,
  // making recovery idempotent and physically discarding any torn tail.
  // Skipped when the directory is already in exactly that shape.
  bool already_clean = wal.records.empty() && wal.tail == WalTail::kClean &&
                       ckpts.front().covered_lsn == ckpt.covered_lsn;
  if (!already_clean) {
    Result<bool> ck = store->WriteCheckpoint(rebuilt, last_lsn, {});
    if (!ck.ok()) return ck.error();
  }

  Opened out;
  out.graph = std::make_shared<const PropertyGraph>(std::move(rebuilt));
  out.info = std::move(info);
  out.store = std::move(store);
  return out;
}

Result<uint64_t> DurableStore::AppendBatch(const std::vector<MutationOp>& ops) {
  if (broken_) {
    return Error(ErrorCode::kUnavailable,
                 "durable store is broken after an earlier write failure; "
                 "restart to recover");
  }
  uint64_t lsn = next_lsn_;
  WalFileOptions wopts;
  wopts.fsync = options_.fsync;
  wopts.group_commit_window_ms = options_.group_commit_window_ms;
  Result<bool> appended = wal_->Append(lsn, ops, wopts);
  if (!appended.ok()) {
    broken_ = true;
    return appended.error();
  }
  next_lsn_ = lsn + 1;
  return lsn;
}

Result<bool> DurableStore::WriteCheckpoint(
    const PropertyGraph& base, uint64_t covered_lsn,
    const std::vector<WalRecord>& residual) {
  if (broken_) {
    return Error(ErrorCode::kUnavailable,
                 "durable store is broken after an earlier write failure; "
                 "restart to recover");
  }
  Result<bool> r = WriteCheckpointImpl(base, covered_lsn, residual);
  if (!r.ok()) broken_ = true;
  return r;
}

Result<bool> DurableStore::WriteCheckpointImpl(
    const PropertyGraph& base, uint64_t covered_lsn,
    const std::vector<WalRecord>& residual) {
  // 1. Checkpoint: write-temp → fsync → rename → fsync(dir).
  std::string image = SnapshotCodec::EncodeSnapshot(base, covered_lsn);
  std::string final_path =
      options_.dir + "/" + kCheckpointPrefix + std::to_string(covered_lsn);
  std::string tmp_path = final_path + ".tmp";
  Result<bool> wrote =
      WriteFileDurably(tmp_path, image, "storage.ckpt.write.torn");
  if (!wrote.ok()) return wrote;
  if (Failpoint::ShouldFail("storage.ckpt.before_rename")) {
    Failpoint::MaybeCrash("storage.ckpt.before_rename");
    return Error(ErrorCode::kUnavailable,
                 "injected checkpoint failure (storage.ckpt.before_rename)");
  }
  if (std::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    return Error(ErrorCode::kUnavailable, "cannot publish checkpoint '" +
                                              final_path +
                                              "': " + std::strerror(errno));
  }
  Result<bool> synced = SyncDirOf(final_path);
  if (!synced.ok()) return synced;
  if (Failpoint::ShouldFail("storage.ckpt.after_rename")) {
    Failpoint::MaybeCrash("storage.ckpt.after_rename");
    return Error(ErrorCode::kUnavailable,
                 "injected checkpoint failure (storage.ckpt.after_rename)");
  }

  // 2. Rotate the WAL down to the residual records, same dance. The old
  //    log stays live until the rename, so a crash anywhere in between
  //    recovers from {new checkpoint, old WAL} — replay just skips the
  //    records the checkpoint already covers.
  std::string wal_image = WalFileHeader();
  for (const WalRecord& rec : residual) {
    AppendWalRecord(&wal_image, rec.lsn, rec.ops);
  }
  wal_.reset();  // close the old append handle before replacing the file
  std::string wal_tmp = wal_path_ + ".tmp";
  wrote = WriteFileDurably(wal_tmp, wal_image, "storage.wal.rotate.torn");
  if (!wrote.ok()) return wrote;
  if (Failpoint::ShouldFail("storage.wal.rotate.before_rename")) {
    Failpoint::MaybeCrash("storage.wal.rotate.before_rename");
    return Error(ErrorCode::kUnavailable,
                 "injected rotate failure (storage.wal.rotate.before_rename)");
  }
  if (std::rename(wal_tmp.c_str(), wal_path_.c_str()) != 0) {
    return Error(ErrorCode::kUnavailable, "cannot publish rotated WAL '" +
                                              wal_path_ +
                                              "': " + std::strerror(errno));
  }
  synced = SyncDirOf(wal_path_);
  if (!synced.ok()) return synced;
  if (Failpoint::ShouldFail("storage.wal.rotate.after_rename")) {
    Failpoint::MaybeCrash("storage.wal.rotate.after_rename");
    return Error(ErrorCode::kUnavailable,
                 "injected rotate failure (storage.wal.rotate.after_rename)");
  }
  Result<std::unique_ptr<WalFile>> reopened =
      WalFile::OpenForAppend(wal_path_, wal_image.size());
  if (!reopened.ok()) return reopened.error();
  wal_ = std::move(reopened).value();

  checkpoint_lsn_ = covered_lsn;
  ++checkpoints_written_;
  PruneCheckpoints(covered_lsn);
  return true;
}

void DurableStore::PruneCheckpoints(uint64_t current_lsn) {
  // Best-effort: a leftover file costs disk, not correctness.
  std::vector<CheckpointFile> ckpts = ListCheckpoints(options_.dir);
  size_t kept = 0;
  for (const CheckpointFile& cf : ckpts) {
    if (cf.covered_lsn > current_lsn || ++kept <= options_.keep_checkpoints) {
      continue;
    }
    std::remove(cf.path.c_str());
  }
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(options_.dir, ec)) {
    std::string name = entry.path().filename().string();
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      std::remove(entry.path().string().c_str());
    }
  }
}

Result<bool> DurableStore::Sync() {
  if (broken_) {
    return Error(ErrorCode::kUnavailable,
                 "durable store is broken after an earlier write failure");
  }
  Result<bool> s = wal_->Sync();
  if (!s.ok()) broken_ = true;
  return s;
}

}  // namespace gqzoo::storage
