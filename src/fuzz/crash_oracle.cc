#include "src/fuzz/crash_oracle.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/fuzz/mutation_gen.h"
#include "src/graph/delta/delta.h"
#include "src/graph/delta/merge.h"
#include "src/graph/graph.h"
#include "src/graph/graph_io.h"
#include "src/storage/snapshot_format.h"
#include "src/storage/wal.h"
#include "src/util/result.h"

namespace gqzoo {
namespace fuzz {

namespace {

std::string RenderDiff(const std::string& a, const std::string& b) {
  size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
  const size_t from = i > 20 ? i - 20 : 0;
  return "first difference at byte " + std::to_string(i) + ": \"" +
         a.substr(from, 40) + "\" vs \"" + b.substr(from, 40) + "\"";
}

/// Replays decoded records through the real recovery path (overlay apply +
/// materialize) and renders the result; empty string on replay failure
/// (reported by the caller).
std::string ReplayRender(const std::shared_ptr<const PropertyGraph>& base,
                         const std::vector<storage::WalRecord>& records,
                         std::string* error) {
  DeltaOverlay overlay(base);
  for (const storage::WalRecord& record : records) {
    MutationBatch batch;
    batch.ops = record.ops;
    Result<size_t> applied = overlay.Apply(batch, nullptr, nullptr);
    if (!applied.ok()) {
      *error = "record lsn " + std::to_string(record.lsn) +
               " did not replay: " + applied.error().message();
      return std::string();
    }
  }
  return PropertyGraphToText(GraphDeltaMerger::Materialize(overlay));
}

}  // namespace

void RunCrashOracle(const FuzzCase& c, OracleReport* report) {
  if (c.mutations.empty()) return;
  Result<PropertyGraph> parsed = ParseCaseGraph(c);
  if (!parsed.ok()) return;  // graph parse parity is the main oracle's job

  auto base =
      std::make_shared<const PropertyGraph>(std::move(parsed).value());
  GraphSim sim(*base);

  // Acked-batch ledger: every op the write path would accept becomes one
  // WAL record (encoded by the real encoder), and the simulator's render
  // after it is the exact state a crash after that ack must recover.
  std::string wal = storage::WalFileHeader();
  std::vector<size_t> boundaries = {wal.size()};
  std::vector<std::string> snapshots = {PropertyGraphToText(sim.Build())};
  size_t n = 0;
  for (const MutationOp& op : c.mutations) {
    if (!sim.Apply(op).ok()) continue;  // rejected ops are never logged
    storage::AppendWalRecord(&wal, ++n, {op});
    boundaries.push_back(wal.size());
    snapshots.push_back(PropertyGraphToText(sim.Build()));
  }
  if (n == 0) return;

  // The undamaged image decodes clean and replays to the final state.
  {
    Result<storage::WalDecodeResult> d = storage::DecodeWal(wal);
    ++report->checks;
    if (!d.ok()) {
      report->Add("crash.wal-roundtrip",
                  "clean log failed to decode: " + d.error().message());
      return;
    }
    if (d.value().tail != storage::WalTail::kClean ||
        d.value().records.size() != n || d.value().valid_bytes != wal.size()) {
      report->Add("crash.wal-roundtrip",
                  "clean log misclassified: " +
                      std::to_string(d.value().records.size()) + "/" +
                      std::to_string(n) + " records, valid_bytes " +
                      std::to_string(d.value().valid_bytes) + "/" +
                      std::to_string(wal.size()));
      return;
    }
    std::string error;
    const std::string replayed = ReplayRender(base, d.value().records, &error);
    ++report->checks;
    if (!error.empty()) {
      report->Add("crash.wal-roundtrip", error);
      return;
    }
    if (replayed != snapshots[n]) {
      report->Add("crash.wal-roundtrip", RenderDiff(replayed, snapshots[n]));
      return;
    }
  }

  // Byte-level truncation sweep: every proper prefix is a possible torn
  // append and must decode to exactly the acked-record prefix before the
  // cut — never kDataLoss, never a half-applied batch.
  size_t boundary_idx = 0;  // index of the last boundary ≤ L
  std::vector<bool> prefix_checked(n + 1, false);
  for (size_t cut = storage::kWalHeaderBytes; cut < wal.size(); ++cut) {
    while (boundaries[boundary_idx + 1] <= cut) ++boundary_idx;
    const bool at_boundary = boundaries[boundary_idx] == cut;
    Result<storage::WalDecodeResult> d =
        storage::DecodeWal(std::string_view(wal).substr(0, cut));
    ++report->checks;
    if (!d.ok()) {
      report->Add("crash.torn-tail-truncate",
                  "truncation to " + std::to_string(cut) +
                      " bytes decoded as data loss: " + d.error().message());
      return;
    }
    const storage::WalDecodeResult& r = d.value();
    const storage::WalTail want_tail =
        at_boundary ? storage::WalTail::kClean : storage::WalTail::kTorn;
    if (r.tail != want_tail || r.records.size() != boundary_idx ||
        r.valid_bytes != boundaries[boundary_idx]) {
      report->Add(
          "crash.torn-tail-truncate",
          "truncation to " + std::to_string(cut) + " bytes: got " +
              std::to_string(r.records.size()) + " records, valid_bytes " +
              std::to_string(r.valid_bytes) + ", tail " +
              (r.tail == storage::WalTail::kClean ? "clean" : "torn") +
              "; want " + std::to_string(boundary_idx) + " records ending at " +
              std::to_string(boundaries[boundary_idx]));
      return;
    }
    // Prefix consistency per distinct boundary (the decode classification
    // above already ran for every byte).
    if (!prefix_checked[boundary_idx]) {
      prefix_checked[boundary_idx] = true;
      std::string error;
      const std::string replayed = ReplayRender(base, r.records, &error);
      ++report->checks;
      if (!error.empty()) {
        report->Add("crash.prefix-consistency", error);
        return;
      }
      if (replayed != snapshots[boundary_idx]) {
        report->Add("crash.prefix-consistency",
                    "prefix of " + std::to_string(boundary_idx) +
                        " records: " +
                        RenderDiff(replayed, snapshots[boundary_idx]));
        return;
      }
    }
  }

  // A flipped payload byte cannot be a torn append when intact records
  // follow it: mid-log damage must refuse to serve, and final-record
  // damage must truncate exactly one record.
  for (size_t victim = 0; victim < n; ++victim) {
    std::string damaged = wal;
    // Offset into the lsn field — always inside the payload.
    damaged[boundaries[victim] + storage::kWalFrameBytes + 1] ^= 0xFF;
    Result<storage::WalDecodeResult> d = storage::DecodeWal(damaged);
    ++report->checks;
    if (victim + 1 < n) {
      if (d.ok() || d.error().code() != ErrorCode::kDataLoss) {
        report->Add("crash.midlog-dataloss",
                    "flipped byte in record " + std::to_string(victim + 1) +
                        "/" + std::to_string(n) + " was not kDataLoss (" +
                        (d.ok() ? "decoded clean" : d.error().message()) + ")");
        return;
      }
    } else {
      if (!d.ok() || d.value().tail != storage::WalTail::kTorn ||
          d.value().records.size() != n - 1 ||
          d.value().valid_bytes != boundaries[n - 1]) {
        report->Add("crash.midlog-dataloss",
                    "flipped byte in the final record must be a torn tail "
                    "cutting exactly that record; got " +
                        (d.ok() ? std::to_string(d.value().records.size()) +
                                      " records"
                                : d.error().message()));
        return;
      }
    }
  }

  // Checkpoint codec: the final state round-trips byte-identically, and a
  // damaged image is kDataLoss (checkpoints are renamed into place whole,
  // so unlike the WAL there is no torn-tail leniency).
  {
    Result<PropertyGraph> final_graph = ParsePropertyGraph(snapshots[n]);
    if (!final_graph.ok()) return;  // render/parse parity is covered above
    // The baseline is the parsed graph's own render, not snapshots[n]:
    // parsing re-interns property ids in text order, and renders list an
    // object's properties pid-sorted, so a property first used on a later
    // object than in the original interning legally swaps render order.
    // The codec contract is an exact roundtrip of the graph it encoded.
    const std::string expected = PropertyGraphToText(final_graph.value());
    const std::string encoded =
        storage::SnapshotCodec::EncodeSnapshot(final_graph.value(), n);
    Result<storage::SnapshotCodec::DecodedSnapshot> decoded =
        storage::SnapshotCodec::DecodeToPlain(encoded);
    ++report->checks;
    if (!decoded.ok()) {
      report->Add("crash.checkpoint-roundtrip",
                  "checkpoint failed to decode: " + decoded.error().message());
      return;
    }
    const std::string rendered = PropertyGraphToText(decoded.value().graph);
    if (decoded.value().covered_lsn != n || rendered != expected) {
      report->Add("crash.checkpoint-roundtrip", RenderDiff(rendered, expected));
      return;
    }
    std::string damaged = encoded;
    damaged[encoded.size() / 2] ^= 0xFF;
    Result<storage::SnapshotCodec::DecodedSnapshot> corrupt =
        storage::SnapshotCodec::DecodeToPlain(damaged);
    ++report->checks;
    if (corrupt.ok() || corrupt.error().code() != ErrorCode::kDataLoss) {
      report->Add("crash.checkpoint-roundtrip",
                  "flipped checkpoint byte was not kDataLoss");
      return;
    }
    Result<storage::SnapshotCodec::DecodedSnapshot> truncated =
        storage::SnapshotCodec::DecodeToPlain(
            std::string_view(encoded).substr(0, encoded.size() - 1));
    ++report->checks;
    if (truncated.ok() || truncated.error().code() != ErrorCode::kDataLoss) {
      report->Add("crash.checkpoint-roundtrip",
                  "truncated checkpoint was not kDataLoss");
    }
  }
}

}  // namespace fuzz
}  // namespace gqzoo
