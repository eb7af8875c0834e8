// WAL and checkpoint codec tests: framing, CRC verification, the torn-tail
// vs mid-log corruption policy, payload round-trips (including escaped
// string values), the WalFile append handle, group commit, and the
// checkpoint's id-faithful graph round trip.
//
// The central property pinned here: EVERY byte-prefix truncation of a valid
// WAL decodes without kDataLoss (a crash can only tear the tail), while any
// damage with intact records after it — or any damage at all to a
// checkpoint — refuses to serve with kDataLoss.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/graph/graph_io.h"
#include "src/storage/crc32c.h"
#include "src/storage/snapshot_format.h"
#include "src/storage/wal.h"

namespace gqzoo::storage {
namespace {

/// A per-test scratch directory under the system temp dir, removed on
/// destruction.
class TempDir {
 public:
  TempDir() {
    std::string tmpl = (std::filesystem::temp_directory_path() /
                        "gqzoo_wal_test.XXXXXX")
                           .string();
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    char* made = mkdtemp(buf.data());
    EXPECT_NE(made, nullptr);
    path_ = made != nullptr ? made : tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  std::string File(const std::string& name) const { return path_ + "/" + name; }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::vector<MutationOp> SampleOps() {
  return {
      MutationOp::AddNode("n1", "Account"),
      MutationOp::AddEdge("e1", "n1", "n1", "Transfer"),
      MutationOp::SetNodeProperty("n1", "balance", Value(int64_t{-42})),
  };
}

/// Three records with consecutive LSNs starting at 1, as a full byte image.
std::string ThreeRecordLog() {
  std::string log = WalFileHeader();
  AppendWalRecord(&log, 1, SampleOps());
  AppendWalRecord(&log, 2, {MutationOp::SetLabel("n1", "Bank")});
  AppendWalRecord(&log, 3, {MutationOp::RemoveEdge("e1"),
                            MutationOp::RemoveNode("n1")});
  return log;
}

/// Byte offsets of the record boundaries in `log` (after the magic, after
/// record 0, ...), derived from the frame headers.
std::vector<size_t> RecordBoundaries(const std::string& log) {
  std::vector<size_t> out = {kWalHeaderBytes};
  size_t pos = kWalHeaderBytes;
  while (pos + kWalFrameBytes <= log.size()) {
    uint32_t len = 0;
    std::memcpy(&len, log.data() + pos, sizeof(len));
    pos += kWalFrameBytes + len;
    out.push_back(pos);
  }
  return out;
}

TEST(WalCodecTest, EmptyLogIsCleanAndRecordless) {
  Result<WalDecodeResult> r = DecodeWal(WalFileHeader());
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().records.empty());
  EXPECT_EQ(r.value().tail, WalTail::kClean);
  EXPECT_EQ(r.value().valid_bytes, kWalHeaderBytes);
}

TEST(WalCodecTest, RecordsRoundTripThroughTheFraming) {
  std::string log = ThreeRecordLog();
  Result<WalDecodeResult> r = DecodeWal(log);
  ASSERT_TRUE(r.ok()) << r.error().message();
  ASSERT_EQ(r.value().records.size(), 3u);
  EXPECT_EQ(r.value().tail, WalTail::kClean);
  EXPECT_EQ(r.value().valid_bytes, log.size());
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(r.value().records[i].lsn, i + 1);
  }
  const std::vector<MutationOp>& ops = r.value().records[0].ops;
  ASSERT_EQ(ops.size(), SampleOps().size());
  for (size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(ops[i].ToString(), SampleOps()[i].ToString());
  }
}

TEST(WalCodecTest, EscapedStringValuesRoundTripExactly) {
  // The payload is line-oriented shell syntax; values with quotes,
  // backslashes, tabs, and newlines must survive only because the op
  // serializer escapes them.
  std::vector<std::string> nasty = {
      "she said \"hi\"", "back\\slash", "tab\there", "line\nbreak", "",
  };
  std::string log = WalFileHeader();
  uint64_t lsn = 1;
  for (const std::string& s : nasty) {
    AppendWalRecord(&log, lsn++,
                    {MutationOp::SetNodeProperty("n", "p", Value(s))});
  }
  Result<WalDecodeResult> r = DecodeWal(log);
  ASSERT_TRUE(r.ok()) << r.error().message();
  ASSERT_EQ(r.value().records.size(), nasty.size());
  for (size_t i = 0; i < nasty.size(); ++i) {
    ASSERT_EQ(r.value().records[i].ops.size(), 1u);
    EXPECT_EQ(r.value().records[i].ops[0].value.as_string(), nasty[i])
        << "value " << i << " did not round-trip";
  }
}

TEST(WalCodecTest, EveryPrefixTruncationIsTornNeverDataLoss) {
  std::string log = ThreeRecordLog();
  std::vector<size_t> boundaries = RecordBoundaries(log);
  for (size_t cut = kWalHeaderBytes; cut < log.size(); ++cut) {
    Result<WalDecodeResult> r = DecodeWal(log.substr(0, cut));
    ASSERT_TRUE(r.ok()) << "cut at " << cut << " byte(s): "
                        << r.error().message();
    // The valid prefix is always the last whole-record boundary <= cut.
    size_t expect_valid = kWalHeaderBytes;
    size_t expect_records = 0;
    for (size_t i = 0; i < boundaries.size(); ++i) {
      if (boundaries[i] <= cut) {
        expect_valid = boundaries[i];
        expect_records = i;
      }
    }
    EXPECT_EQ(r.value().valid_bytes, expect_valid) << "cut at " << cut;
    EXPECT_EQ(r.value().records.size(), expect_records) << "cut at " << cut;
    if (cut == expect_valid) {
      EXPECT_EQ(r.value().tail, WalTail::kClean) << "cut at " << cut;
    } else {
      EXPECT_EQ(r.value().tail, WalTail::kTorn) << "cut at " << cut;
      EXPECT_FALSE(r.value().warning.empty()) << "cut at " << cut;
    }
  }
}

TEST(WalCodecTest, CorruptionBeforeIntactRecordsIsDataLoss) {
  std::string log = ThreeRecordLog();
  std::vector<size_t> boundaries = RecordBoundaries(log);
  // Flip one payload byte inside record 0 — records 1 and 2 after it are
  // intact, so this cannot be a torn append.
  log[boundaries[0] + kWalFrameBytes + 2] ^= 0x40;
  Result<WalDecodeResult> r = DecodeWal(log);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kDataLoss);
}

TEST(WalCodecTest, CorruptFinalRecordIsATornTail) {
  std::string log = ThreeRecordLog();
  std::vector<size_t> boundaries = RecordBoundaries(log);
  log[boundaries[2] + kWalFrameBytes + 2] ^= 0x40;
  Result<WalDecodeResult> r = DecodeWal(log);
  ASSERT_TRUE(r.ok()) << r.error().message();
  EXPECT_EQ(r.value().tail, WalTail::kTorn);
  EXPECT_EQ(r.value().records.size(), 2u);
  EXPECT_EQ(r.value().valid_bytes, boundaries[2]);
}

TEST(WalCodecTest, BadMagicIsDataLoss) {
  std::string log = ThreeRecordLog();
  log[0] ^= 0x01;
  Result<WalDecodeResult> r = DecodeWal(log);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kDataLoss);
}

TEST(WalCodecTest, LsnGapIsDataLoss) {
  std::string log = WalFileHeader();
  AppendWalRecord(&log, 1, SampleOps());
  AppendWalRecord(&log, 3, SampleOps());  // 2 is missing
  Result<WalDecodeResult> r = DecodeWal(log);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kDataLoss);
}

TEST(WalCodecTest, ImplausiblePayloadLengthIsDataLoss) {
  std::string log = WalFileHeader();
  uint32_t len = static_cast<uint32_t>(kMaxWalPayloadBytes + 1);
  uint32_t crc = 0;
  log.append(reinterpret_cast<const char*>(&len), sizeof(len));
  log.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  log += "xxxx";
  Result<WalDecodeResult> r = DecodeWal(log);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kDataLoss);
}

TEST(WalCodecTest, GarbageOpLineInsideCrcCleanRecordIsDataLoss) {
  // A record whose CRC verifies but whose payload is not shell syntax: the
  // checksum says "this is what was written", so an unparseable op is real
  // corruption at write time, not a torn read.
  std::string payload;
  uint64_t lsn = 1;
  payload.append(reinterpret_cast<const char*>(&lsn), sizeof(lsn));
  payload += "this-is-not-a-mutation op";
  std::string log = WalFileHeader();
  uint32_t len = static_cast<uint32_t>(payload.size());
  uint32_t crc = Crc32c(payload.data(), payload.size());
  log.append(reinterpret_cast<const char*>(&len), sizeof(len));
  log.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  log += payload;
  Result<WalDecodeResult> r = DecodeWal(log);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kDataLoss);
}

TEST(WalFileTest, CreateAppendReopenAppend) {
  TempDir dir;
  std::string path = dir.File("wal.log");
  WalFileOptions opts;  // fsync on, no group commit

  Result<std::unique_ptr<WalFile>> created = WalFile::Create(path);
  ASSERT_TRUE(created.ok()) << created.error().message();
  std::unique_ptr<WalFile> wal = std::move(created).value();
  ASSERT_TRUE(wal->Append(1, SampleOps(), opts).ok());
  ASSERT_TRUE(wal->Append(2, {MutationOp::SetLabel("n1", "Bank")}, opts).ok());
  EXPECT_EQ(wal->appended_records(), 2u);
  uint64_t valid = wal->bytes();
  wal.reset();  // clean close

  Result<std::string> bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(bytes.value().size(), valid);
  Result<WalDecodeResult> first = DecodeWal(bytes.value());
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().records.size(), 2u);

  Result<std::unique_ptr<WalFile>> reopened = WalFile::OpenForAppend(path, valid);
  ASSERT_TRUE(reopened.ok()) << reopened.error().message();
  wal = std::move(reopened).value();
  ASSERT_TRUE(wal->Append(3, {MutationOp::RemoveNode("n1")}, opts).ok());
  wal.reset();

  bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  Result<WalDecodeResult> second = DecodeWal(bytes.value());
  ASSERT_TRUE(second.ok()) << second.error().message();
  ASSERT_EQ(second.value().records.size(), 3u);
  EXPECT_EQ(second.value().records[2].lsn, 3u);
}

TEST(WalFileTest, OpenForAppendPhysicallyRemovesATornTail) {
  TempDir dir;
  std::string path = dir.File("wal.log");
  WalFileOptions opts;
  Result<std::unique_ptr<WalFile>> created = WalFile::Create(path);
  ASSERT_TRUE(created.ok());
  std::unique_ptr<WalFile> wal = std::move(created).value();
  ASSERT_TRUE(wal->Append(1, SampleOps(), opts).ok());
  uint64_t valid = wal->bytes();
  wal.reset();

  // Simulate a crash mid-append: a few bytes of the next record's header
  // reached the disk (a real torn append leaves a prefix of a valid
  // record, so the fragment must be shorter than a full frame header — a
  // complete header with garbage in it is mid-log corruption, not a tear).
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "\x03torn";
  }
  Result<std::string> damaged = ReadFileBytes(path);
  ASSERT_TRUE(damaged.ok());
  Result<WalDecodeResult> dec = DecodeWal(damaged.value());
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(dec.value().tail, WalTail::kTorn);
  EXPECT_EQ(dec.value().valid_bytes, valid);

  Result<std::unique_ptr<WalFile>> reopened =
      WalFile::OpenForAppend(path, dec.value().valid_bytes);
  ASSERT_TRUE(reopened.ok());
  wal = std::move(reopened).value();
  ASSERT_TRUE(wal->Append(2, {MutationOp::AddNode("n2", "A")}, opts).ok());
  wal.reset();

  Result<std::string> repaired = ReadFileBytes(path);
  ASSERT_TRUE(repaired.ok());
  Result<WalDecodeResult> clean = DecodeWal(repaired.value());
  ASSERT_TRUE(clean.ok()) << clean.error().message();
  EXPECT_EQ(clean.value().tail, WalTail::kClean);
  ASSERT_EQ(clean.value().records.size(), 2u);
  EXPECT_EQ(clean.value().records[1].lsn, 2u);
}

TEST(WalFileTest, GroupCommitAmortizesFsyncAcrossAppends) {
  TempDir dir;

  // Baseline: fsync-per-append syncs once per record.
  Result<std::unique_ptr<WalFile>> created = WalFile::Create(dir.File("a.log"));
  ASSERT_TRUE(created.ok());
  std::unique_ptr<WalFile> every = std::move(created).value();
  WalFileOptions sync_each;
  for (uint64_t lsn = 1; lsn <= 20; ++lsn) {
    ASSERT_TRUE(every->Append(lsn, SampleOps(), sync_each).ok());
  }
  EXPECT_EQ(every->syncs(), 20u);

  // A wide group-commit window: the first append syncs (window starts
  // empty), later appends ride the window.
  created = WalFile::Create(dir.File("b.log"));
  ASSERT_TRUE(created.ok());
  std::unique_ptr<WalFile> grouped = std::move(created).value();
  WalFileOptions windowed;
  windowed.group_commit_window_ms = 60000;
  for (uint64_t lsn = 1; lsn <= 20; ++lsn) {
    ASSERT_TRUE(grouped->Append(lsn, SampleOps(), windowed).ok());
  }
  EXPECT_LT(grouped->syncs(), 3u)
      << "a 60s window must not fsync per append";
  uint64_t before = grouped->syncs();
  ASSERT_TRUE(grouped->Sync().ok());  // shutdown flush
  EXPECT_EQ(grouped->syncs(), before + 1);
  ASSERT_TRUE(grouped->Sync().ok());  // nothing unsynced: no extra fsync
  EXPECT_EQ(grouped->syncs(), before + 1);

  // Both files hold identical records regardless of sync policy.
  Result<std::string> a = ReadFileBytes(dir.File("a.log"));
  Result<std::string> b = ReadFileBytes(dir.File("b.log"));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value(), b.value());
}

PropertyGraph CheckpointFixture() {
  Result<PropertyGraph> g = ParsePropertyGraph(
      "node a :Account { balance = 10, note = \"has \\\"quotes\\\"\" }\n"
      "node b :Account { ratio = 2.5 }\n"
      "node c :Bank { open = true }\n"
      "edge t0 :Transfer a -> b { amount = 7 }\n"
      "edge t1 :Owns c -> a\n");
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

TEST(CheckpointCodecTest, GraphRoundTripsByteIdentically) {
  PropertyGraph g = CheckpointFixture();
  std::string before = PropertyGraphToText(g);
  std::string image = SnapshotCodec::EncodeSnapshot(g, 77);
  Result<SnapshotCodec::DecodedSnapshot> d =
      SnapshotCodec::DecodeToPlain(image);
  ASSERT_TRUE(d.ok()) << d.error().message();
  EXPECT_EQ(d.value().covered_lsn, 77u);
  EXPECT_EQ(PropertyGraphToText(d.value().graph), before);
}

TEST(CheckpointCodecTest, EmptyGraphRoundTrips) {
  PropertyGraph g;
  std::string image = SnapshotCodec::EncodeSnapshot(g, 0);
  Result<SnapshotCodec::DecodedSnapshot> d =
      SnapshotCodec::DecodeToPlain(image);
  ASSERT_TRUE(d.ok()) << d.error().message();
  EXPECT_EQ(d.value().covered_lsn, 0u);
  EXPECT_EQ(d.value().graph.NumNodes(), 0u);
  EXPECT_EQ(d.value().graph.NumEdges(), 0u);
}

}  // namespace
}  // namespace gqzoo::storage
