// On-disk snapshot format coverage: corruption sweeps (every single-byte
// flip and every prefix truncation must refuse with kDataLoss — the format
// promises every file byte is covered by exactly one checksum), the mapped
// open path (in-memory and from a real mmap'd file), and differential
// tests pinning mapped-graph evaluation in every query language to the
// plain in-RAM evaluation.

#include "src/storage/snapshot_format.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "src/coregql/group_eval.h"
#include "src/coregql/pattern_parser.h"
#include "src/coregql/query.h"
#include "src/crpq/crpq_parser.h"
#include "src/crpq/eval.h"
#include "src/datatest/dl_eval.h"
#include "src/graph/builtin_graphs.h"
#include "src/graph/csr.h"
#include "src/graph/generators.h"
#include "src/graph/graph_io.h"
#include "src/planner/stats.h"
#include "src/rpq/bag_semantics.h"
#include "src/rpq/rpq_eval.h"
#include "tests/test_util.h"

namespace gqzoo {
namespace {

using storage::MappedGraph;
using storage::SnapshotCodec;
using storage::SnapshotFile;
using testing_util::Rx;
using testing_util::SnapshotEvalCrpq;
using testing_util::SnapshotEvalDlCrpq;
using testing_util::SnapshotEvalGqlGroupPattern;
using testing_util::SnapshotRunCoreGql;

class TempDir {
 public:
  TempDir() {
    std::string tmpl = (std::filesystem::temp_directory_path() /
                        "gqzoo_snapshot_format_test.XXXXXX")
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
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

PropertyGraph Fixture() {
  Result<PropertyGraph> g = ParsePropertyGraph(
      "node a :Account { balance = 10, note = \"has \\\"quotes\\\"\" }\n"
      "node b :Account { ratio = 2.5 }\n"
      "node c :Bank { open = true }\n"
      "edge t0 :Transfer a -> b { amount = 7 }\n"
      "edge t1 :Owns c -> a\n");
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

/// Encode → adopt in memory → open mapped-mode views over the image.
MappedGraph OpenImage(const PropertyGraph& g, uint64_t lsn) {
  std::string image = SnapshotCodec::EncodeSnapshot(g, lsn);
  Result<SnapshotFile> file = SnapshotFile::FromBytes(std::move(image));
  EXPECT_TRUE(file.ok()) << file.error().message();
  Result<MappedGraph> mapped = SnapshotCodec::Open(std::move(file).value());
  EXPECT_TRUE(mapped.ok()) << mapped.error().message();
  return std::move(mapped).value();
}

// ---------------------------------------------------------------------------
// Corruption sweeps. Mirrors the WAL's torn-tail sweep in spirit, but the
// policy is stricter: snapshots rename into place whole, so *any* damage
// anywhere — magic, header, region table, payload, even alignment padding
// — is kDataLoss, never leniency.

TEST(SnapshotSweepTest, EveryByteFlipIsDataLoss) {
  PropertyGraph g = RandomPropertyGraph(20, 60, 10, 53);
  std::string image = SnapshotCodec::EncodeSnapshot(g, 42);
  ASSERT_TRUE(SnapshotFile::FromBytes(image).ok());
  for (size_t pos = 0; pos < image.size(); ++pos) {
    std::string damaged = image;
    damaged[pos] ^= 0x01;
    Result<SnapshotFile> f = SnapshotFile::FromBytes(std::move(damaged));
    ASSERT_FALSE(f.ok()) << "flipped byte " << pos << " of " << image.size()
                         << " was accepted";
    EXPECT_EQ(f.error().code(), ErrorCode::kDataLoss) << "byte " << pos;
  }
}

TEST(SnapshotSweepTest, EveryPrefixTruncationIsDataLoss) {
  std::string image = SnapshotCodec::EncodeSnapshot(Fixture(), 5);
  for (size_t cut = 0; cut < image.size(); ++cut) {
    Result<SnapshotFile> f = SnapshotFile::FromBytes(image.substr(0, cut));
    ASSERT_FALSE(f.ok()) << "truncation to " << cut << " bytes was accepted";
    EXPECT_EQ(f.error().code(), ErrorCode::kDataLoss) << "cut " << cut;
  }
  // Trailing garbage is damage too: the header pins the exact total size.
  Result<SnapshotFile> f = SnapshotFile::FromBytes(image + "x");
  ASSERT_FALSE(f.ok());
  EXPECT_EQ(f.error().code(), ErrorCode::kDataLoss);
}

TEST(SnapshotSweepTest, VersionSkewIsDataLoss) {
  std::string image = SnapshotCodec::EncodeSnapshot(Fixture(), 5);
  // A future format version must refuse outright, even if the rest of the
  // file were plausible — there is no guessing at an unknown layout.
  image[storage::kSnapshotMagicBytes] ^= 0x02;
  Result<SnapshotFile> f = SnapshotFile::FromBytes(std::move(image));
  ASSERT_FALSE(f.ok());
  EXPECT_EQ(f.error().code(), ErrorCode::kDataLoss);
}

// ---------------------------------------------------------------------------
// Mapped open: the same accessors, reading the file image in place.

TEST(MappedSnapshotTest, OpenServesByteIdenticalGraphInPlace) {
  PropertyGraph g = Fixture();
  MappedGraph m = OpenImage(g, 9);
  EXPECT_TRUE(m.graph->is_mapped());
  EXPECT_TRUE(m.graph->skeleton().is_mapped());
  EXPECT_EQ(m.covered_lsn, 9u);
  EXPECT_GT(m.file_bytes, 0u);
  EXPECT_EQ(PropertyGraphToText(*m.graph), PropertyGraphToText(g));

  // Point lookups go through the sorted by-name directories, not a hash.
  for (const char* name : {"a", "b", "c"}) {
    ASSERT_TRUE(m.graph->skeleton().FindNode(name).has_value()) << name;
    EXPECT_EQ(m.graph->skeleton().NodeName(
                  *m.graph->skeleton().FindNode(name)),
              name);
  }
  EXPECT_FALSE(m.graph->skeleton().FindNode("nope").has_value());
  ASSERT_TRUE(m.graph->skeleton().FindEdge("t1").has_value());
  EXPECT_FALSE(m.graph->skeleton().FindEdge("t9").has_value());
}

TEST(MappedSnapshotTest, OpenMappedReadsARealFileViaMmap) {
  TempDir dir;
  PropertyGraph g = RandomPropertyGraph(30, 90, 8, 17);
  std::string image = SnapshotCodec::EncodeSnapshot(g, 123);
  std::string path = dir.path() + "/snap";
  {
    std::ofstream out(path, std::ios::binary);
    out << image;
    ASSERT_TRUE(out.good());
  }
  Result<SnapshotFile> file = SnapshotFile::OpenMapped(path);
  ASSERT_TRUE(file.ok()) << file.error().message();
  EXPECT_EQ(file.value().file_bytes(), image.size());
  Result<MappedGraph> mapped = SnapshotCodec::Open(std::move(file).value());
  ASSERT_TRUE(mapped.ok()) << mapped.error().message();
  EXPECT_EQ(mapped.value().covered_lsn, 123u);
  EXPECT_EQ(PropertyGraphToText(*mapped.value().graph),
            PropertyGraphToText(g));
  // The mapping must outlive the file handle and even the snapshot file on
  // disk (POSIX keeps mapped pages alive after unlink).
  std::filesystem::remove(path);
  EXPECT_EQ(PropertyGraphToText(*mapped.value().graph),
            PropertyGraphToText(g));
}

TEST(MappedSnapshotTest, MaterializePlainRoundTripsAndIsMutable) {
  PropertyGraph g = Fixture();
  MappedGraph m = OpenImage(g, 1);
  EdgeLabeledGraph plain = m.graph->skeleton().MaterializePlain();
  EXPECT_FALSE(plain.is_mapped());
  ASSERT_EQ(plain.NumNodes(), g.skeleton().NumNodes());
  ASSERT_EQ(plain.NumEdges(), g.skeleton().NumEdges());
  // Ids are preserved exactly, and the copy accepts writes.
  for (NodeId v = 0; v < plain.NumNodes(); ++v) {
    EXPECT_EQ(plain.NodeName(v), g.skeleton().NodeName(v));
  }
  plain.AddNode("fresh");
  EXPECT_EQ(plain.NumNodes(), g.skeleton().NumNodes() + 1);
}

TEST(MappedSnapshotTest, MappedStatsMatchRebuiltStats) {
  PropertyGraph g = RandomPropertyGraph(25, 80, 6, 29);
  MappedGraph m = OpenImage(g, 3);
  GraphSnapshot rebuilt(g);
  SnapshotStats expect(rebuilt);
  ASSERT_EQ(m.stats->num_labels(), expect.num_labels());
  EXPECT_EQ(m.stats->num_nodes(), expect.num_nodes());
  EXPECT_EQ(m.stats->num_edges(), expect.num_edges());
  for (LabelId l = 0; l < expect.num_labels(); ++l) {
    EXPECT_EQ(m.stats->EdgeCount(l), expect.EdgeCount(l)) << l;
    EXPECT_EQ(m.stats->DistinctSources(l), expect.DistinctSources(l)) << l;
    EXPECT_EQ(m.stats->DistinctTargets(l), expect.DistinctTargets(l)) << l;
    EXPECT_EQ(m.stats->NodeLabelCount(l), expect.NodeLabelCount(l)) << l;
  }
}

// ---------------------------------------------------------------------------
// Differentials: every query language evaluated over the mapped epoch
// (graph + CSR views reading the file image) must agree exactly with the
// plain in-RAM evaluation. Mirrors csr_test's snapshot differentials.

std::set<std::string> CrpqRows(const EdgeLabeledGraph& g,
                               const CrpqResult& r) {
  std::set<std::string> out;
  for (const auto& row : r.rows) {
    std::string s;
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) s += ",";
      s += CrpqValueToString(g, row[i]);
    }
    out.insert(s);
  }
  return out;
}

TEST(MappedDifferentialTest, RpqAndBagSemanticsAgree) {
  EdgeLabeledGraph base = RandomGraph(25, 110, 4, 41);
  PropertyGraph pg = ToPropertyGraph(base);
  MappedGraph m = OpenImage(pg, 1);
  const EdgeLabeledGraph& g = pg.skeleton();
  const EdgeLabeledGraph& mg = m.graph->skeleton();
  for (const char* regex : {"a*", "(a|b)+ c", "!{a} b*"}) {
    Nfa nfa = Nfa::FromRegex(*Rx(regex), g);
    EXPECT_EQ(EvalRpq(GraphSnapshot(mg), nfa), EvalRpq(GraphSnapshot(g),
                                                       nfa)) << regex;
    EXPECT_EQ(EvalRpq(*m.snapshot, nfa), EvalRpq(GraphSnapshot(g),
                                                 nfa)) << regex;
    EXPECT_EQ(BagCountTotal(*Rx(regex), *m.snapshot).ToString(),
              BagCountTotal(*Rx(regex), GraphSnapshot(g)).ToString())
        << regex;
  }
}

TEST(MappedDifferentialTest, CrpqEvaluationAgrees) {
  EdgeLabeledGraph base = RandomGraph(25, 110, 4, 41);
  PropertyGraph pg = ToPropertyGraph(base);
  MappedGraph m = OpenImage(pg, 1);
  const EdgeLabeledGraph& g = pg.skeleton();
  const char* queries[] = {
      "q(x, y) := a* (x, y)",
      "q(x, z) := (a|b)+ (x, y), c* (y, z)",
      "q(x) := a b (x, y), !{c} (y, x)",
  };
  for (const char* text : queries) {
    Result<Crpq> q = ParseCrpq(text);
    ASSERT_TRUE(q.ok()) << text;
    Result<CrpqResult> built_r = SnapshotEvalCrpq(g, q.value());
    ASSERT_TRUE(built_r.ok());
    CrpqEvalOptions options;
    options.snapshot = m.snapshot.get();
    Result<CrpqResult> mapped_r =
        EvalCrpq(m.graph->skeleton(), q.value(), options);
    ASSERT_TRUE(mapped_r.ok()) << mapped_r.error().message();
    EXPECT_EQ(CrpqRows(g, built_r.value()),
              CrpqRows(m.graph->skeleton(), mapped_r.value()))
        << text;
  }
}

TEST(MappedDifferentialTest, DlCrpqEvaluationAgrees) {
  PropertyGraph g = Figure3Graph();
  MappedGraph m = OpenImage(g, 1);
  const char* queries[] = {
      "q(x, y) := ( ()[Transfer] )+ () (x, y)",
      "q(x) := ( ()[Transfer][amount > 5000000] )+ () (x, y)",
      "q(z) := trail ()[Transfer^z]( ()[Transfer^z] )+ () (@a3, @a3)",
      "q(x, y) := shortest ( ()[Transfer] )+ () (x, y)",
  };
  for (const char* text : queries) {
    Result<Crpq> q = ParseCrpq(text, RegexDialect::kDl);
    ASSERT_TRUE(q.ok()) << text << ": " << q.error().message();
    Result<CrpqResult> built_r = SnapshotEvalDlCrpq(g, q.value());
    ASSERT_TRUE(built_r.ok()) << built_r.error().message();
    DlCrpqEvalOptions options;
    options.snapshot = m.snapshot.get();
    Result<CrpqResult> mapped_r = EvalDlCrpq(*m.graph, q.value(), options);
    ASSERT_TRUE(mapped_r.ok()) << mapped_r.error().message();
    EXPECT_EQ(CrpqRows(g.skeleton(), built_r.value()),
              CrpqRows(m.graph->skeleton(), mapped_r.value()))
        << text;
  }
}

TEST(MappedDifferentialTest, CoreGqlQueriesAgree) {
  PropertyGraph g = RandomPropertyGraph(20, 60, 10, 53);
  MappedGraph m = OpenImage(g, 1);
  const char* queries[] = {
      "MATCH (x)-[e]->(y) RETURN x, e, y",
      "MATCH (x:N)->(y) WHERE x.k = y.k RETURN x, y",
      "MATCH (x)-[:a]->(y), (y)-[:a]->(z) RETURN x, z",
      "MATCH (x)-[e:a]->(y) WHERE e.k = 3 RETURN x, y",
  };
  for (const char* text : queries) {
    Result<CoreQueryResult> built_r = SnapshotRunCoreGql(g, text);
    ASSERT_TRUE(built_r.ok()) << text << ": " << built_r.error().message();
    CoreQueryEvalOptions options;
    options.path_options.snapshot = m.snapshot.get();
    Result<CoreQueryResult> mapped_r = RunCoreGql(*m.graph, text, options);
    ASSERT_TRUE(mapped_r.ok()) << mapped_r.error().message();
    EXPECT_EQ(built_r.value().relation.ToString(g.skeleton()),
              mapped_r.value().relation.ToString(m.graph->skeleton()))
        << text;
  }
}

TEST(MappedDifferentialTest, GqlGroupPatternsAgree) {
  PropertyGraph g = ToPropertyGraph(RandomGraph(12, 36, 2, 61));
  MappedGraph m = OpenImage(g, 1);
  const char* patterns[] = {
      "(x) ( ()-[z:a]->() ){2} (y)",
      "(x) ( ()-[:a]->() | ()-[:b]->() ) (y)",
      "( ()-[z:a]->() ){1,2}",
  };
  for (const char* text : patterns) {
    Result<CorePatternPtr> p = ParseCorePattern(text);
    ASSERT_TRUE(p.ok()) << text << ": " << p.error().message();
    Result<GqlEvalResult> built_r =
        SnapshotEvalGqlGroupPattern(g, *p.value());
    ASSERT_TRUE(built_r.ok()) << built_r.error().message();
    CorePathEvalOptions options;
    options.snapshot = m.snapshot.get();
    Result<GqlEvalResult> mapped_r =
        EvalGqlGroupPattern(*m.graph, *p.value(), options);
    ASSERT_TRUE(mapped_r.ok()) << mapped_r.error().message();
    ASSERT_EQ(built_r.value().rows.size(), mapped_r.value().rows.size())
        << text;
    for (size_t i = 0; i < built_r.value().rows.size(); ++i) {
      EXPECT_EQ(built_r.value().rows[i].path.ToString(g.skeleton()),
                mapped_r.value().rows[i].path.ToString(m.graph->skeleton()));
    }
  }
}

TEST(MappedDifferentialTest, EmptyGraphMapsCleanly) {
  PropertyGraph g;
  MappedGraph m = OpenImage(g, 0);
  EXPECT_EQ(m.graph->skeleton().NumNodes(), 0u);
  EXPECT_EQ(m.graph->skeleton().NumEdges(), 0u);
  EXPECT_EQ(PropertyGraphToText(*m.graph), PropertyGraphToText(g));
}

}  // namespace
}  // namespace gqzoo
