// Table-driven error-path parity: for every cancellation/deadline/
// fail-point trigger, each query language must surface the *documented*
// status code through the full engine stack — the same class everywhere,
// never a wrong answer, never a different error for the same cause.
//
// governor_test.cc proves individual sites unwind; this table pins the
// cause → code mapping per language so a refactor can't silently reroute,
// say, a deadline into kResourceExhausted for one evaluator only.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <functional>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/coregql/group_eval.h"
#include "src/coregql/pattern_parser.h"
#include "src/coregql/query.h"
#include "src/crpq/crpq_parser.h"
#include "src/crpq/eval.h"
#include "src/datatest/dl_eval.h"
#include "src/engine/engine.h"
#include "src/graph/generators.h"
#include "src/graph/graph_io.h"
#include "src/rpq/rpq_eval.h"
#include "src/util/failpoint.h"
#include "tests/test_util.h"

namespace gqzoo {
namespace {

using testing_util::SnapshotEvalCrpq;

struct LanguageQuery {
  QueryLanguage language;
  const char* text;
  const char* paths_from = "";
  const char* paths_to = "";
};

/// One nontrivial query per language; all touch label `a` so every
/// evaluator does real work on a clique before the trigger fires.
const std::vector<LanguageQuery>& AllLanguages() {
  static const std::vector<LanguageQuery> kQueries = {
      {QueryLanguage::kRpq, "a+"},
      {QueryLanguage::kCrpq, "q(x, z) :- a+(x, y), a+(y, z)"},
      {QueryLanguage::kDlCrpq, "q(x, y) := ( ()[a^z] )+ () (x, y)"},
      {QueryLanguage::kCoreGql, "MATCH (x) -[e:a]-> (y) RETURN x, y"},
      {QueryLanguage::kGqlGroup, "(x) (-[t:a]->(v)){1,3} (y)"},
      {QueryLanguage::kPaths, "a+", "q0", "q1"},
  };
  return kQueries;
}

QueryRequest RequestFor(const LanguageQuery& q) {
  QueryRequest request;
  request.language = q.language;
  request.text = q.text;
  request.paths.from = q.paths_from;
  request.paths.to = q.paths_to;
  return request;
}

TEST(ErrorParityTest, DeadlineMidRunIsDeadlineExceeded) {
  // A 1ms deadline against walk enumeration on a clique (5^12 candidate
  // walks) cannot be met on any machine; the cooperative probes must stop
  // the query and surface exactly kDeadlineExceeded — not a partial OK,
  // not kResourceExhausted.
  QueryEngine engine(ToPropertyGraph(Clique(6)));
  QueryRequest request;
  request.language = QueryLanguage::kPaths;
  request.text = "a+";
  request.paths.from = "q0";
  request.paths.to = "q1";
  request.timeout = std::chrono::milliseconds(1);
  request.max_results = 100000000;
  request.max_path_length = 12;
  Result<QueryResponse> r = engine.Execute(request);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kDeadlineExceeded)
      << r.error().message();
}

TEST(ErrorParityTest, PreTrippedContextIsPreservedByEveryEvaluator) {
  // Cancellation parity at the library layer: a context that is already
  // tripped makes each evaluator unwind promptly, and none of them may
  // overwrite the recorded cause (first trip wins) — that cause is what
  // the engine maps to the documented status code.
  PropertyGraph g = ToPropertyGraph(Clique(4));
  for (StopCause cause : {StopCause::kCancelled, StopCause::kDeadline}) {
    QueryContext ctx;
    ctx.Trip(cause);

    (void)EvalRpq(GraphSnapshot(g),
                  Nfa::FromRegex(*testing_util::Rx("a+"), g.skeleton()), &ctx);

    Crpq crpq =
        ParseCrpq("q(x, z) :- a+(x, y), a+(y, z)", RegexDialect::kPlain)
            .ValueOrDie();
    CrpqEvalOptions crpq_options;
    crpq_options.cancel = &ctx;
    (void)SnapshotEvalCrpq(g.skeleton(), crpq, crpq_options);

    EXPECT_EQ(ctx.stop_cause(), cause) << StopCauseName(cause);
  }
}

TEST(ErrorParityTest, MissingSnapshotIsInvalidArgument) {
  // Every evaluator reads the graph through a GraphSnapshot; leaving the
  // options' snapshot unset is a caller error, not a fallback.
  PropertyGraph g = ToPropertyGraph(Clique(3));
  struct Case {
    const char* name;
    std::function<std::optional<ErrorCode>()> run;
  };
  auto code = [](const auto& result) -> std::optional<ErrorCode> {
    if (result.ok()) return std::nullopt;
    return result.error().code();
  };
  const std::vector<Case> cases = {
      {"crpq",
       [&] {
         return code(EvalCrpq(
             g.skeleton(),
             ParseCrpq("q(x) :- a(x, y)", RegexDialect::kPlain).ValueOrDie(),
             CrpqEvalOptions{}));
       }},
      {"dlcrpq",
       [&] {
         return code(EvalDlCrpq(
             g, ParseCrpq("q(x) :- ()[a]()(x, y)", RegexDialect::kDl)
                    .ValueOrDie(),
             DlCrpqEvalOptions{}));
       }},
      {"gql",
       [&] {
         return code(EvalCoreGqlQuery(
             g,
             ParseCoreGqlQuery("MATCH (x)-[:a]->(y) RETURN x").ValueOrDie(),
             CoreQueryEvalOptions{}));
       }},
      {"gqlgroup",
       [&] {
         return code(EvalGqlGroupPattern(
             g, *ParseCorePattern("(x)-[:a]->(y)").ValueOrDie(),
             CorePathEvalOptions{}));
       }},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(c.run(), ErrorCode::kInvalidArgument) << c.name;
  }
}

TEST(ErrorParityTest, TinyStepBudgetIsResourceExhaustedEverywhere) {
  QueryEngine engine(ToPropertyGraph(Clique(6)));
  for (const LanguageQuery& q : AllLanguages()) {
    QueryRequest request = RequestFor(q);
    request.step_budget = 1;  // trips on the first hot-loop iteration
    Result<QueryResponse> r = engine.Execute(request);
    ASSERT_FALSE(r.ok()) << QueryLanguageName(q.language);
    EXPECT_EQ(r.error().code(), ErrorCode::kResourceExhausted)
        << QueryLanguageName(q.language) << ": " << r.error().message();
  }
}

// The documented fail-point table (failpoint.h): site → language whose hot
// path contains it → status class the unwind must surface.
struct FailpointRow {
  const char* site;
  QueryLanguage language;
  ErrorCode expected;
};

TEST(ErrorParityTest, FailpointSitesSurfaceDocumentedCodes) {
  const FailpointRow kRows[] = {
      {"rpq.product.bfs", QueryLanguage::kRpq, ErrorCode::kResourceExhausted},
      {"crpq.join.alloc", QueryLanguage::kCrpq,
       ErrorCode::kResourceExhausted},
      {"datatest.recurse", QueryLanguage::kDlCrpq,
       ErrorCode::kResourceExhausted},
      // The frontier site lives in group_eval, so it belongs to kGqlGroup
      // repetitions, not plain CoreGQL MATCH.
      {"coregql.frontier", QueryLanguage::kGqlGroup,
       ErrorCode::kResourceExhausted},
      {"pmr.enumerate.emit", QueryLanguage::kPaths, ErrorCode::kCancelled},
  };
  QueryEngine engine(ToPropertyGraph(Clique(4)));
  for (const FailpointRow& row : kRows) {
    Failpoint::DisarmAll();
    const LanguageQuery* q = nullptr;
    for (const LanguageQuery& candidate : AllLanguages()) {
      if (candidate.language == row.language) q = &candidate;
    }
    ASSERT_NE(q, nullptr);
    QueryRequest request = RequestFor(*q);
    // A set-but-huge budget forces a governed context (fail-points only
    // fire on governed runs) without ever tripping on its own.
    request.memory_budget = 1ull << 40;
    // Keep the clean re-run cheap: dl-CRPQ capture enumeration on a
    // clique explodes under the engine's default limits.
    request.max_results = 50;
    request.max_path_length = 6;

    ScopedFailpoint scoped(row.site);
    Result<QueryResponse> r = engine.Execute(request);
    ASSERT_FALSE(r.ok()) << row.site;
    EXPECT_EQ(r.error().code(), row.expected)
        << row.site << ": " << r.error().message();
    EXPECT_GE(Failpoint::FireCount(row.site), 1u) << row.site;

    // Disarmed, the identical request succeeds: the trigger is the fail
    // point, not the query.
    Result<QueryResponse> clean = engine.Execute(request);
    EXPECT_TRUE(clean.ok()) << row.site << ": " << clean.error().message();
  }
}

TEST(ErrorParityTest, WcojAllocFailpointIsResourceExhaustedEverywhere) {
  // The wcoj result-tuple alloc site must surface the same class as the
  // binary join's alloc site — kResourceExhausted — for every language
  // whose planner can select a cyclic core (failpoint.h: crpq.wcoj.alloc).
  // Each query is a triangle over label `a`, so the planner replaces the
  // whole conjunct list with a wcoj group and the site is on the hot path.
  struct WcojRow {
    QueryLanguage language;
    const char* text;
  };
  const WcojRow kRows[] = {
      {QueryLanguage::kCrpq, "q(x, y, z) :- a(x, y), a(y, z), a(x, z)"},
      {QueryLanguage::kDlCrpq,
       "q(x, y, z) := [a] (x, y), [a] (y, z), [a] (x, z)"},
      {QueryLanguage::kCoreGql,
       "MATCH (x)-[:a]->(y), (y)-[:a]->(z), (x)-[:a]->(z) RETURN x, y, z"},
  };
  QueryEngine engine(ToPropertyGraph(Clique(4)));
  for (const WcojRow& row : kRows) {
    Failpoint::DisarmAll();
    QueryRequest request;
    request.language = row.language;
    request.text = row.text;
    request.memory_budget = 1ull << 40;  // governed, never trips on its own

    ScopedFailpoint scoped("crpq.wcoj.alloc");
    Result<QueryResponse> r = engine.Execute(request);
    ASSERT_FALSE(r.ok()) << QueryLanguageName(row.language);
    EXPECT_EQ(r.error().code(), ErrorCode::kResourceExhausted)
        << QueryLanguageName(row.language) << ": " << r.error().message();
    // FireCount proves the wcoj group was actually selected and reached.
    EXPECT_GE(Failpoint::FireCount("crpq.wcoj.alloc"), 1u)
        << QueryLanguageName(row.language);

    Result<QueryResponse> clean = engine.Execute(request);
    EXPECT_TRUE(clean.ok())
        << QueryLanguageName(row.language) << ": " << clean.error().message();
  }
}

TEST(ErrorParityTest, SubmitShedIsOverloadedForEveryLanguage) {
  QueryEngine engine(ToPropertyGraph(Clique(4)));
  for (const LanguageQuery& q : AllLanguages()) {
    Failpoint::DisarmAll();
    ScopedFailpoint scoped("engine.submit");
    Result<QueryResponse> r = engine.Submit(RequestFor(q)).get();
    ASSERT_FALSE(r.ok()) << QueryLanguageName(q.language);
    EXPECT_EQ(r.error().code(), ErrorCode::kOverloaded)
        << QueryLanguageName(q.language);
  }
}

TEST(ErrorParityTest, StaticErrorsKeepTheirClassAcrossJoinOrders) {
  // Parse and not-found outcomes must not depend on execution-time policy
  // (planner vs textual order, budgets).
  QueryEngine engine(ToPropertyGraph(Clique(4)));
  QueryRequest bad;
  bad.language = QueryLanguage::kCrpq;
  bad.text = "q(x :- broken";
  for (bool textual : {false, true}) {
    bad.textual_join_order = textual;
    Result<QueryResponse> r = engine.Execute(bad);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code(), ErrorCode::kParse);
  }

  QueryRequest missing;
  missing.language = QueryLanguage::kPaths;
  missing.text = "a+";
  missing.paths.from = "q0";
  missing.paths.to = "no_such_node";
  for (bool textual : {false, true}) {
    missing.textual_join_order = textual;
    Result<QueryResponse> r = engine.Execute(missing);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code(), ErrorCode::kNotFound);
  }
}

// Durable-storage cause → code table: every way a durability directory can
// be damaged maps to exactly one status class. kDataLoss is reserved for
// damage that loses acked writes (the engine refuses to serve); a torn
// tail — bytes a crash cut off an in-flight, never-acked append — recovers
// OK with a warning; a live write failure is kUnavailable, not data loss.
TEST(ErrorParityTest, DurableStorageDamageSurfacesDocumentedCodes) {
  struct DamageRow {
    const char* cause;
    void (*damage)(const std::string& dir);
    std::optional<ErrorCode> expected;  // nullopt = must recover OK
  };
  const DamageRow kRows[] = {
      {"wal.log deleted (checkpoints present)",
       [](const std::string& dir) {
         std::filesystem::remove(dir + "/wal.log");
       },
       ErrorCode::kDataLoss},
      {"all checkpoints deleted (WAL holds records)",
       [](const std::string& dir) {
         for (const auto& e : std::filesystem::directory_iterator(dir)) {
           if (e.path().filename().string().rfind("checkpoint-", 0) == 0) {
             std::filesystem::remove(e.path());
           }
         }
       },
       ErrorCode::kDataLoss},
      {"mid-log WAL corruption (intact record after it)",
       [](const std::string& dir) {
         // Records begin after the 8-byte magic; byte magic+10 is inside
         // the first record's payload, and a second record follows it.
         std::fstream f(dir + "/wal.log",
                        std::ios::binary | std::ios::in | std::ios::out);
         f.seekp(18);
         f.put('\x7e');
       },
       ErrorCode::kDataLoss},
      {"torn WAL tail (crash mid-append)",
       [](const std::string& dir) {
         std::ofstream out(dir + "/wal.log",
                           std::ios::binary | std::ios::app);
         out << "\x40torn";
       },
       std::nullopt},
  };
  for (const DamageRow& row : kRows) {
    std::string tmpl = (std::filesystem::temp_directory_path() /
                        "gqzoo_parity_dataloss.XXXXXX")
                           .string();
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    ASSERT_NE(mkdtemp(buf.data()), nullptr);
    std::string dir = buf.data();

    QueryEngine::Options options;
    options.num_threads = 2;
    options.durability.dir = dir;
    {
      Result<std::unique_ptr<QueryEngine>> engine =
          QueryEngine::RecoverFrom(ToPropertyGraph(Clique(3)), options);
      ASSERT_TRUE(engine.ok()) << row.cause;
      // Two logged batches so the WAL has a record boundary mid-file.
      for (const char* name : {"extra1", "extra2"}) {
        MutationBatch batch;
        batch.ops = {MutationOp::AddNode(name, "Added")};
        ASSERT_TRUE(engine.value()->ApplyMutation(batch).ok()) << row.cause;
      }
    }
    row.damage(dir);
    Result<std::unique_ptr<QueryEngine>> r =
        QueryEngine::RecoverFrom(ToPropertyGraph(Clique(3)), options);
    if (row.expected.has_value()) {
      ASSERT_FALSE(r.ok()) << row.cause << ": damage was not detected";
      EXPECT_EQ(r.error().code(), *row.expected)
          << row.cause << ": " << r.error().message();
    } else {
      ASSERT_TRUE(r.ok()) << row.cause << ": " << r.error().message();
      EXPECT_FALSE(r.value()->recovery_info().warning.empty()) << row.cause;
    }
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
}

}  // namespace
}  // namespace gqzoo
