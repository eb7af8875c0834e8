// Tests for the mutable-graph subsystem: the DeltaOverlay write set, the
// merged-view / compaction id discipline (GraphDeltaMerger), and the engine
// write path (ApplyMutation, plans cached by the graph's vocabulary, epoch
// MVCC, CompactNow, the kRegular compaction barrier, and admission/budget
// shedding). The concurrency tests at the bottom are the TSan targets:
// readers race a writer, a compactor or SetGraph on one engine.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/engine/engine.h"
#include "src/fuzz/mutation_gen.h"
#include "src/graph/builtin_graphs.h"
#include "src/graph/delta/delta.h"
#include "src/graph/delta/merge.h"
#include "src/graph/graph.h"
#include "src/graph/graph_io.h"
#include "src/util/failpoint.h"

namespace gqzoo {
namespace {

QueryRequest Req(QueryLanguage language, const std::string& text) {
  QueryRequest request;
  request.language = language;
  request.text = text;
  return request;
}

/// x --a--> y --b--> z, one label per edge.
PropertyGraph TwoLabelGraph() {
  PropertyGraph g;
  NodeId x = g.AddNode("x", "N");
  NodeId y = g.AddNode("y", "N");
  NodeId z = g.AddNode("z", "N");
  g.AddEdge(x, y, "a", "ea");
  g.AddEdge(y, z, "b", "eb");
  return g;
}

std::string Text(const PropertyGraph& g) { return PropertyGraphToText(g); }

/// Compaction never triggers on its own: tiny test graphs cross the
/// default churn ratio after a couple of ops, which would fold the delta
/// behind assertions about `pending_ops`.
QueryEngine::Options NoAutoCompact() {
  QueryEngine::Options options;
  options.num_threads = 2;
  options.mutation.compact_min_ops = size_t{1} << 30;
  options.mutation.compact_ratio = 1e9;
  return options;
}

// ---------------------------------------------------------------------------
// MutationOp surface

TEST(MutationOpTest, ToStringParseRoundTrip) {
  std::vector<MutationOp> ops = {
      MutationOp::AddNode("w1", "Account"),
      MutationOp::RemoveNode("a4"),
      MutationOp::AddEdge("t11", "a1", "a6", "Transfer"),
      MutationOp::RemoveEdge("t9"),
      MutationOp::SetLabel("a2", "Blocked"),
      MutationOp::SetNodeProperty("a1", "owner", Value(std::string("Zoe"))),
      MutationOp::SetEdgeProperty("t1", "amount", Value(int64_t{42})),
      MutationOp::SetNodeProperty("a1", "flag", Value(true)),
  };
  for (const MutationOp& op : ops) {
    Result<MutationOp> parsed = ParseMutationOp(op.ToString());
    ASSERT_TRUE(parsed.ok()) << op.ToString() << ": "
                             << parsed.error().message();
    EXPECT_EQ(parsed.value().ToString(), op.ToString());
  }
}

TEST(MutationOpTest, ParseRejectsMalformedLines) {
  EXPECT_FALSE(ParseMutationOp("frobnicate x").ok());
  EXPECT_FALSE(ParseMutationOp("add-node onlyname").ok());
  EXPECT_FALSE(ParseMutationOp("add-edge e src").ok());
  EXPECT_FALSE(ParseMutationOp("set-prop node x").ok());
  EXPECT_FALSE(ParseMutationOp("").ok());
}

TEST(MutationOpTest, NastyStringValuesRoundTripExactly) {
  // The textual form is both the shell surface and the WAL record payload,
  // so values full of quoting hazards must survive serialize → parse with
  // every byte intact — not merely re-render to the same string.
  std::vector<std::string> values = {
      "",
      " ",
      "two  spaces",
      "she said \"hi\" and left",
      "back\\slash and \\\" mix",
      "tab\tnewline\nreturn\r",
      "trailing backslash \\",
      "\"",
      std::string(kMaxMutationValueLen, 'v'),
  };
  for (const std::string& v : values) {
    MutationOp op = MutationOp::SetNodeProperty("n", "p", Value(v));
    Result<MutationOp> parsed = ParseMutationOp(op.ToString());
    ASSERT_TRUE(parsed.ok()) << parsed.error().message();
    EXPECT_EQ(parsed.value().value.as_string(), v)
        << "bytes changed across the round trip";
    EXPECT_EQ(parsed.value().ToString(), op.ToString());
  }
}

TEST(MutationOpTest, IdentifierValidationBoundaries) {
  // Identifiers are the loophole-free half of WAL safety: names never get
  // escaped anywhere, so the write path must reject anything outside the
  // bare-identifier charset before it can reach a log record.
  const std::string max_name(kMaxMutationNameLen, 'a');
  EXPECT_TRUE(IsValidMutationName(max_name));
  EXPECT_TRUE(IsValidMutationName("_x9"));
  EXPECT_FALSE(IsValidMutationName(max_name + "a"));
  EXPECT_FALSE(IsValidMutationName(""));
  EXPECT_FALSE(IsValidMutationName("has space"));
  EXPECT_FALSE(IsValidMutationName("has\"quote"));
  EXPECT_FALSE(IsValidMutationName("has\nnewline"));
  EXPECT_FALSE(IsValidMutationName("9starts_with_digit"));
  EXPECT_FALSE(IsValidMutationName("dash-ed"));

  EXPECT_TRUE(
      ValidateMutationNames(MutationOp::AddNode(max_name, "L")).ok());
  for (const MutationOp& bad : {
           MutationOp::AddNode(max_name + "a", "L"),
           MutationOp::AddNode("n", "bad label"),
           MutationOp::AddEdge("e", "a b", "c", "L"),
           MutationOp::SetLabel("n", "\"L\""),
           MutationOp::SetNodeProperty("n", "bad prop", Value(1)),
           MutationOp::SetNodeProperty(
               "n", "p", Value(std::string(kMaxMutationValueLen + 1, 'v'))),
       }) {
    Result<bool> r = ValidateMutationNames(bad);
    ASSERT_FALSE(r.ok()) << bad.ToString();
    EXPECT_EQ(r.error().code(), ErrorCode::kInvalidArgument);
  }
}

TEST(MutationOpTest, IsMutationCommandCoversAllVerbs) {
  for (const char* verb : {"add-node", "del-node", "add-edge", "del-edge",
                           "set-label", "set-prop"}) {
    EXPECT_TRUE(IsMutationCommand(verb)) << verb;
  }
  EXPECT_FALSE(IsMutationCommand("rpq"));
  EXPECT_FALSE(IsMutationCommand("compact"));
}

// ---------------------------------------------------------------------------
// DeltaOverlay semantics

TEST(DeltaOverlayTest, ErrorCodesMatchValidationRules) {
  auto base = std::make_shared<PropertyGraph>(TwoLabelGraph());
  GraphSnapshot base_snapshot(*base);
  DeltaOverlay overlay(base, base_snapshot);
  MutationBatch batch;

  auto apply_one = [&](MutationOp op) {
    MutationBatch b;
    b.ops.push_back(std::move(op));
    return overlay.Apply(b);
  };

  // Duplicate names and empty labels are invalid arguments.
  EXPECT_EQ(apply_one(MutationOp::AddNode("x", "N")).error().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(apply_one(MutationOp::AddNode("w", "")).error().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(apply_one(MutationOp::AddEdge("ea", "x", "y", "a"))
                .error()
                .code(),
            ErrorCode::kInvalidArgument);
  // Missing subjects are not-found.
  EXPECT_EQ(apply_one(MutationOp::RemoveNode("nope")).error().code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(apply_one(MutationOp::RemoveEdge("nope")).error().code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(apply_one(MutationOp::SetLabel("nope", "M")).error().code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(apply_one(MutationOp::AddEdge("e2", "x", "nope", "a"))
                .error()
                .code(),
            ErrorCode::kNotFound);
  // None of the rejected ops entered the log.
  EXPECT_EQ(overlay.seq(), 0u);
}

TEST(DeltaOverlayTest, BatchKeepsValidPrefixOnError) {
  auto base = std::make_shared<PropertyGraph>(TwoLabelGraph());
  GraphSnapshot base_snapshot(*base);
  DeltaOverlay overlay(base, base_snapshot);

  MutationBatch batch;
  batch.AddNode("w1", "N")
      .AddEdge("e2", "x", "w1", "a")
      .AddEdge("bad", "x", "missing", "a")  // fails: tgt unknown
      .AddNode("w2", "N");                  // never reached
  Result<size_t> applied = overlay.Apply(batch);
  ASSERT_FALSE(applied.ok());
  EXPECT_EQ(applied.error().code(), ErrorCode::kNotFound);
  // The two valid leading ops stay applied; the log is exactly the prefix.
  EXPECT_EQ(overlay.seq(), 2u);
  EXPECT_EQ(overlay.alive_added_nodes(), 1u);
  EXPECT_EQ(overlay.alive_added_edges(), 1u);

  // The overlay stays usable after a rejected batch.
  MutationBatch more;
  more.AddNode("w2", "N");
  Result<size_t> again = overlay.Apply(more);
  ASSERT_TRUE(again.ok()) << again.error().message();
  EXPECT_EQ(overlay.seq(), 3u);
}

TEST(DeltaOverlayTest, RemoveNodeCascadesToIncidentEdges) {
  auto base = std::make_shared<PropertyGraph>(TwoLabelGraph());
  GraphSnapshot base_snapshot(*base);
  DeltaOverlay overlay(base, base_snapshot);
  MutationBatch batch;
  batch.RemoveNode("y");  // y carries both ea (in x->y) and eb (out y->z)
  ASSERT_TRUE(overlay.Apply(batch).ok());
  EXPECT_EQ(overlay.removed_base_nodes(), 1u);
  EXPECT_EQ(overlay.removed_base_edges(), 2u);

  PropertyGraph merged = GraphDeltaMerger::Materialize(overlay);
  EXPECT_EQ(merged.NumNodes(), 2u);
  EXPECT_EQ(merged.NumEdges(), 0u);
  // The freed edge name is reusable.
  MutationBatch reuse;
  reuse.AddEdge("ea", "x", "z", "a");
  ASSERT_TRUE(overlay.Apply(reuse).ok());
}

/// Merge (splice view), Materialize (compactor output) and Replay (from-
/// scratch reference) must agree byte-for-byte on a sequence that exercises
/// every op kind, tombstones, name reuse, and property overrides on both
/// base and added objects.
TEST(DeltaOverlayTest, MergeMaterializeReplayAgree) {
  auto base = std::make_shared<PropertyGraph>(Figure3Graph());
  GraphSnapshot base_snapshot(*base);
  DeltaOverlay overlay(base, base_snapshot);

  MutationBatch batch;
  batch.AddNode("w1", "Account")
      .AddNode("w2", "Shell")
      .AddEdge("t11", "w1", "a3", "Transfer")
      .AddEdge("t12", "w2", "w1", "Wire")
      .SetLabel("a2", "Blocked")
      .SetNodeProperty("a1", "owner", Value(std::string("Zoe")))
      .SetNodeProperty("w1", "owner", Value(std::string("Pat")))
      .SetEdgeProperty("t11", "amount", Value(int64_t{7}))
      .RemoveNode("a4")   // cascades t3, t6, t9
      .RemoveEdge("t10")
      .AddNode("a4", "Account");  // reuse the freed name
  Result<size_t> applied = overlay.Apply(batch);
  ASSERT_TRUE(applied.ok()) << applied.error().message();

  MergedGraph merged = GraphDeltaMerger::Merge(overlay);
  PropertyGraph materialized = GraphDeltaMerger::Materialize(overlay);
  PropertyGraph replayed =
      GraphDeltaMerger::Replay(*base, base_snapshot, overlay.log());

  std::string merged_text = Text(*merged.graph);
  EXPECT_EQ(merged_text, Text(materialized));
  EXPECT_EQ(merged_text, Text(replayed));
  // The merged CSR must describe the merged graph, not the base.
  EXPECT_EQ(merged.snapshot->NumNodes(), merged.graph->NumNodes());
  EXPECT_EQ(merged.snapshot->NumEdges(), merged.graph->NumEdges());
}

/// The fuzzer's independent GraphSim reimplementation must agree with the
/// overlay on handcrafted tricky sequences, both on accept/reject codes and
/// on the final rendered graph.
TEST(DeltaOverlayTest, GraphSimParityOnTrickySequences) {
  auto base = std::make_shared<PropertyGraph>(TwoLabelGraph());
  GraphSnapshot base_snapshot(*base);
  DeltaOverlay overlay(base, base_snapshot);
  fuzz::GraphSim sim(*base);

  std::vector<MutationOp> ops = {
      MutationOp::RemoveNode("y"),              // cascade both edges
      MutationOp::AddNode("y", "M"),            // readd under new label
      MutationOp::AddEdge("ea", "x", "y", "a"), // freed edge name
      MutationOp::SetLabel("y", "M"),           // no-op label change
      MutationOp::SetNodeProperty("x", "k", Value(int64_t{1})),
      MutationOp::SetNodeProperty("x", "k", Value(int64_t{2})),  // override
      MutationOp::SetEdgeProperty("ea", "k", Value(false)),
      MutationOp::RemoveEdge("eb"),             // already dead via cascade
      MutationOp::AddNode("x", "N"),            // name still taken
      MutationOp::SetLabel("z", "Mz"),
  };
  for (const MutationOp& op : ops) {
    MutationBatch b;
    b.ops.push_back(op);
    Result<size_t> overlay_status = overlay.Apply(b);
    Result<bool> sim_status = sim.Apply(op);
    ASSERT_EQ(overlay_status.ok(), sim_status.ok()) << op.ToString();
    if (!overlay_status.ok()) {
      EXPECT_EQ(overlay_status.error().code(), sim_status.error().code())
          << op.ToString();
    }
  }
  EXPECT_EQ(Text(GraphDeltaMerger::Materialize(overlay)), Text(sim.Build()));
}

// ---------------------------------------------------------------------------
// Engine write path

TEST(EngineMutationTest, MutationVisibleToSubsequentQueries) {
  QueryEngine engine(Figure3Graph());
  Result<QueryResponse> before =
      engine.Execute(Req(QueryLanguage::kRpq, "Transfer"));
  ASSERT_TRUE(before.ok());

  MutationBatch batch;
  batch.AddEdge("t11", "a1", "a6", "Transfer");
  Result<QueryEngine::MutationResult> applied = engine.ApplyMutation(batch);
  ASSERT_TRUE(applied.ok()) << applied.error().message();
  EXPECT_EQ(applied.value().applied, 1u);
  EXPECT_EQ(applied.value().pending_ops, 1u);

  Result<QueryResponse> after =
      engine.Execute(Req(QueryLanguage::kRpq, "Transfer"));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().num_rows, before.value().num_rows + 1);

  EXPECT_EQ(engine.metrics().write_batches.value(), 1u);
  EXPECT_EQ(engine.metrics().write_ops.value(), 1u);
  EXPECT_EQ(engine.metrics().delta_pending_ops.value(), 1u);
  EXPECT_EQ(engine.delta_info().pending_ops, 1u);
  // The merged view was built lazily for the post-mutation read.
  EXPECT_GE(engine.metrics().merged_view_builds.value(), 1u);
}

TEST(EngineMutationTest, BatchErrorKeepsPrefixAndReportsOp) {
  QueryEngine engine(TwoLabelGraph(), NoAutoCompact());
  MutationBatch batch;
  batch.AddNode("w1", "N").AddEdge("bad", "w1", "missing", "a");
  Result<QueryEngine::MutationResult> applied = engine.ApplyMutation(batch);
  ASSERT_FALSE(applied.ok());
  EXPECT_EQ(applied.error().code(), ErrorCode::kNotFound);
  // The valid prefix is visible: w1 exists, so an edge to it now succeeds.
  MutationBatch follow;
  follow.AddEdge("e2", "x", "w1", "a");
  EXPECT_TRUE(engine.ApplyMutation(follow).ok());
  EXPECT_EQ(engine.delta_info().pending_ops, 2u);
}

TEST(EngineMutationTest, ReadersPinPreWriteView) {
  QueryEngine engine(TwoLabelGraph());
  std::shared_ptr<const PropertyGraph> pinned = engine.graph_snapshot();
  std::string before = Text(*pinned);

  MutationBatch batch;
  batch.AddEdge("e2", "z", "x", "a");
  ASSERT_TRUE(engine.ApplyMutation(batch).ok());
  ASSERT_TRUE(engine.CompactNow());

  // The pinned generation is untouched by both the write and the fold.
  EXPECT_EQ(Text(*pinned), before);
  EXPECT_NE(Text(*engine.graph_snapshot()), before);
}

TEST(EngineMutationTest, WritesOnKnownLabelsKeepPlansCached) {
  QueryEngine engine(TwoLabelGraph(), NoAutoCompact());
  // Plans that bake interned label ids: an automaton, per-atom automata,
  // and dl automata.
  const std::vector<QueryRequest> requests = {
      Req(QueryLanguage::kRpq, "a+"),
      Req(QueryLanguage::kCrpq, "q(u, w) :- a(u, v), a(v, w)"),
      Req(QueryLanguage::kDlCrpq, "q(u, v) := ()[a]() (u, v)"),
  };
  auto rows = [&engine, &requests](bool expect_hit) {
    std::vector<size_t> out;
    for (const QueryRequest& r : requests) {
      Result<QueryResponse> response = engine.Execute(r);
      EXPECT_TRUE(response.ok()) << r.text;
      if (!response.ok()) return out;
      EXPECT_EQ(response.value().cache_hit, expect_hit) << r.text;
      out.push_back(response.value().num_rows);
    }
    return out;
  };
  EXPECT_EQ(rows(false), (std::vector<size_t>{1, 0, 1}));

  // An insert on a known label: the cached plans serve the new answers.
  MutationBatch insert;
  insert.AddEdge("ea2", "z", "x", "a");
  ASSERT_TRUE(engine.ApplyMutation(insert).ok());
  EXPECT_EQ(rows(true), (std::vector<size_t>{3, 1, 2}));

  // A delete, likewise.
  MutationBatch remove;
  remove.RemoveEdge("ea");
  ASSERT_TRUE(engine.ApplyMutation(remove).ok());
  EXPECT_EQ(rows(true), (std::vector<size_t>{1, 0, 1}));

  // Compaction keeps every interned id, so the plans stay cached.
  ASSERT_TRUE(engine.CompactNow());
  EXPECT_EQ(rows(true), (std::vector<size_t>{1, 0, 1}));
}

TEST(EngineMutationTest, UnknownLabelBecomingKnownInvalidates) {
  QueryEngine engine(TwoLabelGraph());
  // "zz" matches nothing yet; interning it grows the vocabulary, so the
  // plan compiled without it is never served again.
  QueryRequest rpq_zz = Req(QueryLanguage::kRpq, "zz");
  Result<QueryResponse> empty = engine.Execute(rpq_zz);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty.value().num_rows, 0u);
  ASSERT_TRUE(engine.Execute(rpq_zz).value().cache_hit);

  MutationBatch batch;
  batch.AddEdge("ez", "x", "y", "zz");
  ASSERT_TRUE(engine.ApplyMutation(batch).ok());

  Result<QueryResponse> after = engine.Execute(rpq_zz);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after.value().cache_hit);
  EXPECT_EQ(after.value().num_rows, 1u);
}

TEST(EngineMutationTest, EvalTimeLanguagesSurviveMutations) {
  QueryEngine engine(TwoLabelGraph());
  // CoreGQL resolves labels at evaluation time, so its plan outlives the
  // write — and still sees the new data.
  QueryRequest gql =
      Req(QueryLanguage::kCoreGql, "MATCH (u)-[:a]->(v) RETURN u, v");
  Result<QueryResponse> before = engine.Execute(gql);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(engine.Execute(gql).value().cache_hit);

  MutationBatch batch;
  batch.AddEdge("ea2", "z", "x", "a");
  ASSERT_TRUE(engine.ApplyMutation(batch).ok());

  Result<QueryResponse> after = engine.Execute(gql);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after.value().cache_hit);
  EXPECT_EQ(after.value().num_rows, before.value().num_rows + 1);
}

TEST(EngineMutationTest, NewPropertyNameMissesDlPlan) {
  QueryEngine engine(TwoLabelGraph(), NoAutoCompact());
  // "w" names no property yet; the dl automaton resolved it to nothing.
  QueryRequest dl =
      Req(QueryLanguage::kDlCrpq, "q(u, v) := ()[a][w > 0]() (u, v)");
  Result<QueryResponse> empty = engine.Execute(dl);
  ASSERT_TRUE(empty.ok()) << empty.error().message();
  EXPECT_EQ(empty.value().num_rows, 0u);
  ASSERT_TRUE(engine.Execute(dl).value().cache_hit);

  MutationBatch batch;
  batch.SetEdgeProperty("ea", "w", Value(int64_t{1}));
  ASSERT_TRUE(engine.ApplyMutation(batch).ok());

  Result<QueryResponse> after = engine.Execute(dl);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after.value().cache_hit);
  EXPECT_EQ(after.value().num_rows, 1u);

  // Setting the now-known property again interns nothing: the plan hits.
  MutationBatch again;
  again.SetEdgeProperty("ea", "w", Value(int64_t{0}));
  ASSERT_TRUE(engine.ApplyMutation(again).ok());
  Result<QueryResponse> cleared = engine.Execute(dl);
  ASSERT_TRUE(cleared.ok());
  EXPECT_TRUE(cleared.value().cache_hit);
  EXPECT_EQ(cleared.value().num_rows, 0u);
}

TEST(EngineMutationTest, SetGraphStartsANewPlanEpoch) {
  QueryEngine engine(TwoLabelGraph());
  QueryRequest rpq_a = Req(QueryLanguage::kRpq, "a");
  ASSERT_TRUE(engine.Execute(rpq_a).ok());
  ASSERT_TRUE(engine.Execute(rpq_a).value().cache_hit);
  MutationBatch batch;
  batch.AddNode("w1", "N");
  ASSERT_TRUE(engine.ApplyMutation(batch).ok());

  engine.SetGraph(TwoLabelGraph());
  EXPECT_EQ(engine.metrics().graph_epoch_bumps.value(), 1u);
  // Same text, same vocabulary, new epoch: compiled afresh.
  Result<QueryResponse> after = engine.Execute(rpq_a);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after.value().cache_hit);
  // Any pending delta died with the old base.
  EXPECT_EQ(engine.delta_info().pending_ops, 0u);
}

TEST(EngineMutationTest, CompactionPreservesViewAndCachedPlans) {
  QueryEngine::Options options;
  options.num_threads = 2;
  options.mutation.background_compaction = false;
  QueryEngine engine(Figure3Graph(), options);

  QueryRequest rpq = Req(QueryLanguage::kRpq, "Wire");
  MutationBatch batch;
  batch.AddNode("w1", "Account")
      .AddEdge("t11", "w1", "a1", "Wire")
      .RemoveEdge("t9");
  ASSERT_TRUE(engine.ApplyMutation(batch).ok());
  ASSERT_TRUE(engine.Execute(rpq).ok());
  ASSERT_TRUE(engine.Execute(rpq).value().cache_hit);
  std::string merged_text = Text(*engine.graph_snapshot());

  ASSERT_TRUE(engine.CompactNow());
  EXPECT_FALSE(engine.CompactNow());  // nothing left to fold

  // Query-visible state is unchanged, down to rendered bytes and ids.
  EXPECT_EQ(Text(*engine.graph_snapshot()), merged_text);
  EXPECT_EQ(engine.delta_info().pending_ops, 0u);
  EXPECT_EQ(engine.delta_info().compactions, 1u);
  EXPECT_EQ(engine.metrics().compactions_run.value(), 1u);
  EXPECT_EQ(engine.metrics().delta_pending_ops.value(), 0u);
  // No epoch bump: the cached plan survives the fold.
  Result<QueryResponse> after = engine.Execute(rpq);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after.value().cache_hit);

  // The compacted base accepts further mutations (residual lifecycle).
  MutationBatch more;
  more.AddEdge("t12", "a1", "w1", "Wire");
  ASSERT_TRUE(engine.ApplyMutation(more).ok());
  Result<QueryResponse> grown = engine.Execute(rpq);
  ASSERT_TRUE(grown.ok());
  EXPECT_EQ(grown.value().num_rows, 2u);
}

TEST(EngineMutationTest, PolicyThresholdTriggersSynchronousCompaction) {
  QueryEngine::Options options;
  options.num_threads = 2;
  options.mutation.compact_min_ops = 2;
  options.mutation.background_compaction = false;
  QueryEngine engine(TwoLabelGraph(), options);

  MutationBatch first;
  first.AddNode("w1", "N");
  Result<QueryEngine::MutationResult> r1 = engine.ApplyMutation(first);
  ASSERT_TRUE(r1.ok());
  EXPECT_FALSE(r1.value().compaction_scheduled);

  MutationBatch second;
  second.AddNode("w2", "N");
  Result<QueryEngine::MutationResult> r2 = engine.ApplyMutation(second);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2.value().compaction_scheduled);
  EXPECT_EQ(engine.delta_info().pending_ops, 0u);
  EXPECT_EQ(engine.delta_info().compactions, 1u);
}

TEST(EngineMutationTest, RegularQueryForcesCompactionBarrier) {
  QueryEngine::Options options;
  options.num_threads = 2;
  options.mutation.background_compaction = false;
  QueryEngine engine(Figure3Graph(), options);

  MutationBatch batch;
  batch.AddEdge("t11", "a1", "a6", "Wire");
  ASSERT_TRUE(engine.ApplyMutation(batch).ok());
  ASSERT_EQ(engine.delta_info().pending_ops, 1u);

  // Regular queries cannot evaluate an overlay-mode view; the engine folds
  // the delta first and the query sees the mutation.
  Result<QueryResponse> r =
      engine.Execute(Req(QueryLanguage::kRegular, "q(u, v) := Wire(u, v)"));
  ASSERT_TRUE(r.ok()) << r.error().message();
  EXPECT_EQ(r.value().num_rows, 1u);
  EXPECT_EQ(engine.delta_info().pending_ops, 0u);
  EXPECT_GE(engine.delta_info().compactions, 1u);
}

TEST(EngineMutationTest, WriteShedViaFailpoint) {
  QueryEngine engine(TwoLabelGraph());
  MutationBatch batch;
  batch.AddNode("w1", "N");
  {
    ScopedFailpoint fp("engine.apply_mutation");
    Result<QueryEngine::MutationResult> shed = engine.ApplyMutation(batch);
    ASSERT_FALSE(shed.ok());
    EXPECT_EQ(shed.error().code(), ErrorCode::kOverloaded);
  }
  EXPECT_EQ(engine.metrics().write_sheds.value(), 1u);
  EXPECT_EQ(engine.delta_info().pending_ops, 0u);
  // After the shed the same batch goes through.
  EXPECT_TRUE(engine.ApplyMutation(batch).ok());
}

TEST(EngineMutationTest, WriteBudgetExhaustionKeepsChargedPrefix) {
  QueryEngine engine(TwoLabelGraph(), NoAutoCompact());
  ResourceBudgets tight;
  tight.steps = 2;  // writes charge one step per op
  engine.set_default_budgets(tight);

  MutationBatch batch;
  batch.AddNode("w1", "N").AddNode("w2", "N").AddNode("w3", "N");
  Result<QueryEngine::MutationResult> r = engine.ApplyMutation(batch);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kResourceExhausted);
  // The two ops inside the budget stay applied.
  EXPECT_EQ(engine.delta_info().pending_ops, 2u);
}

TEST(EngineMutationTest, StatsReportShowsDeltaLine) {
  QueryEngine engine(TwoLabelGraph());
  MutationBatch batch;
  batch.AddNode("w1", "N");
  ASSERT_TRUE(engine.ApplyMutation(batch).ok());
  std::string report = engine.StatsReport();
  EXPECT_NE(report.find("delta"), std::string::npos);
  EXPECT_NE(report.find("pending_ops 1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Concurrency (the TSan target)

/// Readers, one writer, and one compactor race on a single engine. The
/// writer's net effect is zero (every added edge is deleted in the same
/// iteration), so after a final fold the rendered graph must equal the
/// starting state; meanwhile every concurrent read must succeed against
/// some consistent pinned view.
TEST(DeltaConcurrencyTest, ReadersWriterCompactorRace) {
  QueryEngine::Options options;
  options.num_threads = 2;
  options.mutation.compact_min_ops = 8;
  options.mutation.background_compaction = true;
  QueryEngine engine(TwoLabelGraph(), options);
  const std::string initial = Text(*engine.graph_snapshot());

  constexpr int kWriterIterations = 400;
  constexpr int kReaderIterations = 500;
  std::atomic<bool> stop{false};
  std::atomic<int> read_failures{0};
  std::atomic<int> write_failures{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&engine, &read_failures, t] {
      QueryRequest rpq =
          Req(QueryLanguage::kRpq, t % 2 == 0 ? "a+" : "a b");
      for (int i = 0; i < kReaderIterations; ++i) {
        Result<QueryResponse> r = engine.Execute(rpq);
        if (!r.ok()) read_failures.fetch_add(1);
      }
    });
  }
  std::thread writer([&engine, &write_failures] {
    for (int i = 0; i < kWriterIterations; ++i) {
      std::string edge = "w" + std::to_string(i);
      MutationBatch add;
      add.AddEdge(edge, "x", "z", "a");
      MutationBatch del;
      del.RemoveEdge(edge);
      if (!engine.ApplyMutation(add).ok()) write_failures.fetch_add(1);
      if (!engine.ApplyMutation(del).ok()) write_failures.fetch_add(1);
    }
  });
  std::thread compactor([&engine, &stop] {
    while (!stop.load()) {
      engine.CompactNow();
      std::this_thread::yield();
    }
  });

  for (std::thread& t : readers) t.join();
  writer.join();
  stop.store(true);
  compactor.join();

  EXPECT_EQ(read_failures.load(), 0);
  EXPECT_EQ(write_failures.load(), 0);

  // Fold whatever is left; the writer's net effect is zero.
  while (engine.delta_info().pending_ops > 0) {
    if (!engine.CompactNow()) std::this_thread::yield();
  }
  EXPECT_EQ(Text(*engine.graph_snapshot()), initial);
  EXPECT_EQ(engine.metrics().write_ops.value(),
            static_cast<uint64_t>(2 * kWriterIterations));
}

/// Readers compile in a loop while a writer interns a fresh label per
/// batch. A reader that starts after batch i was acknowledged pins a view
/// holding label L<i>, so its plan for `L<i> (a|b){0,60}` must resolve
/// that label and find both pairs from x, never the empty answer of a plan
/// compiled before the label existed. Readers also compile the query for
/// `L<i+1>` before it exists; its 120-position automaton takes long enough
/// to compile that such stale plans race the writer into the cache.
TEST(DeltaConcurrencyTest, NewLabelsNeverServeStalePlans) {
  QueryEngine::Options options;
  options.num_threads = 2;
  options.mutation.compact_min_ops = 16;
  options.mutation.background_compaction = true;
  QueryEngine engine(TwoLabelGraph(), options);

  constexpr int kLabels = 60;
  std::atomic<int> acknowledged{-1};
  std::atomic<int> verified{-1};
  std::atomic<bool> done{false};
  std::atomic<int> stale{0};
  std::atomic<int> failures{0};
  auto query = [](int i) {
    return Req(QueryLanguage::kRpq, "L" + std::to_string(i) + " (a|b){0,60}");
  };

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!done.load()) {
        const int i = acknowledged.load();
        if (!engine.Execute(query(i + 1)).ok()) failures.fetch_add(1);
        if (i < 0) continue;
        Result<QueryResponse> known = engine.Execute(query(i));
        if (!known.ok()) {
          failures.fetch_add(1);
        } else if (known.value().num_rows != 2) {
          stale.fetch_add(1);
        }
        int seen = verified.load();
        while (seen < i && !verified.compare_exchange_weak(seen, i)) {
        }
      }
    });
  }
  for (int i = 0; i < kLabels; ++i) {
    MutationBatch batch;
    batch.AddEdge("e" + std::to_string(i), "x", "y", "L" + std::to_string(i));
    if (!engine.ApplyMutation(batch).ok()) failures.fetch_add(1);
    acknowledged.store(i);
    // Each label is checked before the next one is interned.
    while (verified.load() < i) std::this_thread::yield();
  }
  done.store(true);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(stale.load(), 0);
}

/// x --p--> y and z --q--> w, with `p` interned before `q` or after it.
/// Both graphs have the same nodes, edges and vocabulary sizes; only the
/// ids of `p` and `q` are swapped, so a plan for `p` compiled against one
/// answers `q`'s pair on the other.
PropertyGraph PermutedLabelGraph(bool p_first) {
  PropertyGraph g;
  NodeId x = g.AddNode("x", "N");
  NodeId y = g.AddNode("y", "N");
  NodeId z = g.AddNode("z", "N");
  NodeId w = g.AddNode("w", "N");
  if (p_first) g.AddEdge(x, y, "p", "ep");
  g.AddEdge(z, w, "q", "eq");
  if (!p_first) g.AddEdge(x, y, "p", "ep");
  return g;
}

/// Readers execute while SetGraph swaps between the two numberings of
/// PermutedLabelGraph. The vocabulary counts never change, so only the
/// epoch keeps a plan compiled against one numbering from serving the
/// other: every answer must be the pinned graph's, which is the same pair
/// under both. The engine is durable so that each swap writes a
/// checkpoint, which widens any gap between publishing the new graph and
/// bumping the epoch.
TEST(DeltaConcurrencyTest, SetGraphNeverPairsAGraphWithAnOldEpoch) {
  std::string dir = (std::filesystem::temp_directory_path() /
                     "gqzoo_delta_test.XXXXXX")
                        .string();
  ASSERT_NE(mkdtemp(dir.data()), nullptr);
  QueryEngine::Options options;
  options.num_threads = 2;
  options.durability.dir = dir;
  Result<std::unique_ptr<QueryEngine>> opened =
      QueryEngine::RecoverFrom(PermutedLabelGraph(true), options);
  ASSERT_TRUE(opened.ok()) << opened.error().message();
  QueryEngine& engine = *opened.value();

  const std::vector<QueryRequest> queries = {
      Req(QueryLanguage::kRpq, "p"),
      Req(QueryLanguage::kCrpq, "q(s, t) :- p(s, t)"),
      Req(QueryLanguage::kDlCrpq, "q(s, t) := ()[p]() (s, t)")};
  std::vector<std::string> expected;
  for (const QueryRequest& query : queries) {
    QueryEngine cold(PermutedLabelGraph(false));
    Result<QueryResponse> r = cold.Execute(query);
    ASSERT_TRUE(r.ok()) << r.error().message();
    ASSERT_EQ(r.value().num_rows, 1u);
    expected.push_back(r.value().text);
  }

  constexpr int kSwaps = 200;
  std::atomic<bool> done{false};
  std::atomic<int> wrong{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!done.load()) {
        for (size_t q = 0; q < queries.size(); ++q) {
          Result<QueryResponse> r = engine.Execute(queries[q]);
          if (!r.ok()) {
            failures.fetch_add(1);
          } else if (r.value().text != expected[q]) {
            wrong.fetch_add(1);
          }
        }
      }
    });
  }
  for (int i = 0; i < kSwaps; ++i) {
    engine.SetGraph(PermutedLabelGraph(i % 2 == 1));
  }
  done.store(true);
  for (std::thread& t : readers) t.join();
  opened.value().reset();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(wrong.load(), 0);
}

}  // namespace
}  // namespace gqzoo
