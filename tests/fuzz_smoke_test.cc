// Smoke tests for the differential fuzzing harness itself: seed
// reproducibility, generator validity, oracle cleanliness on a few hundred
// cases (the full campaign runs in CI via `gqzoo_fuzz --smoke`), the label
// renamer's token discipline, and the minimizer/regression-emitter
// plumbing.

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "src/fuzz/fuzzer.h"
#include "src/fuzz/metamorphic.h"
#include "src/fuzz/minimize.h"
#include "src/util/thread_pool.h"

namespace gqzoo {
namespace fuzz {
namespace {

TEST(FuzzRngTest, DeterministicAndForkDecorrelated) {
  FuzzRng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
  // Forks of the same seed with different stream ids diverge immediately.
  FuzzRng f1 = FuzzRng(42).Fork(1);
  FuzzRng f2 = FuzzRng(42).Fork(2);
  EXPECT_NE(f1.Next(), f2.Next());
  // CaseSeed is stable: regression tests depend on these exact values.
  EXPECT_EQ(CaseSeed(1, 0), CaseSeed(1, 0));
  EXPECT_NE(CaseSeed(1, 0), CaseSeed(1, 1));
  EXPECT_NE(CaseSeed(1, 0), CaseSeed(2, 0));
}

TEST(FuzzCaseTest, TextRoundTrip) {
  FuzzerOptions options;
  for (size_t i = 0; i < 25; ++i) {
    FuzzCase c = GenCase(CaseSeed(3, i), options);
    Result<FuzzCase> back = ParseFuzzCase(c.ToText());
    ASSERT_TRUE(back.ok()) << back.error().message() << "\n" << c.ToText();
    EXPECT_EQ(back.value().seed, c.seed);
    EXPECT_EQ(back.value().language, c.language);
    EXPECT_EQ(back.value().query_text, c.query_text);
    EXPECT_EQ(back.value().graph_text, c.graph_text);
    EXPECT_EQ(back.value().paths_from, c.paths_from);
    EXPECT_EQ(back.value().paths_to, c.paths_to);
    EXPECT_EQ(back.value().paths_mode, c.paths_mode);
    EXPECT_EQ(back.value().step_budget, c.step_budget);
    EXPECT_EQ(back.value().memory_budget, c.memory_budget);
  }
}

TEST(FuzzGeneratorTest, CasesAreSeedReproducible) {
  FuzzerOptions options;
  for (size_t i = 0; i < 50; ++i) {
    FuzzCase a = GenCase(CaseSeed(9, i), options);
    FuzzCase b = GenCase(CaseSeed(9, i), options);
    EXPECT_EQ(a.ToText(), b.ToText()) << "case " << i;
  }
}

TEST(FuzzCampaignTest, SameSeedSameStatsAndVerdicts) {
  FuzzerOptions options;
  options.seed = 11;
  options.num_cases = 60;
  options.oracle.engine_checks = false;  // library-only: fast
  FuzzRunResult a = RunFuzzer(options);
  FuzzRunResult b = RunFuzzer(options);
  EXPECT_EQ(a.stats.ToString(), b.stats.ToString());
  ASSERT_EQ(a.failures.size(), b.failures.size());
  for (size_t i = 0; i < a.failures.size(); ++i) {
    EXPECT_EQ(a.failures[i].check, b.failures[i].check);
    EXPECT_EQ(a.failures[i].minimized.ToText(),
              b.failures[i].minimized.ToText());
  }
}

TEST(FuzzCampaignTest, NoDivergencesWithEngineAndShardedLegs) {
  QueryEngine::Options engine_options;
  engine_options.num_threads = 2;
  engine_options.rpq_shards = 3;
  QueryEngine engine(PropertyGraph(), engine_options);
  ThreadPool pool(2);

  FuzzerOptions options;
  options.seed = 20260807;
  options.num_cases = 150;
  options.oracle.engine = &engine;
  options.oracle.pool = &pool;
  FuzzRunResult run = RunFuzzer(options);
  EXPECT_EQ(run.stats.cases_run, 150u);
  EXPECT_GT(run.stats.checks, run.stats.cases_run);  // full matrix executed
  for (const FuzzFailure& f : run.failures) {
    ADD_FAILURE() << "case " << f.case_index << " [" << f.check << "] "
                  << f.detail << "\n"
                  << f.minimized.ToText();
  }
}

TEST(FuzzGeneratorTest, QueriesMostlyParse) {
  // The generators aim for valid-by-construction queries; a high parse
  // rate keeps the oracle matrix exercised rather than bouncing off kParse.
  FuzzerOptions options;
  options.seed = 5;
  options.num_cases = 200;
  options.metamorphic = false;
  options.oracle.engine_checks = false;
  FuzzRunResult run = RunFuzzer(options);
  EXPECT_GE(run.stats.queries_parsed * 100, run.stats.cases_run * 90);
}

TEST(RenameLabelsTest, WholeTokensOnly) {
  std::map<std::string, std::string> rename = {{"a", "lr0"}, {"b", "lr1"}};
  // Keywords and longer identifiers that merely *contain* a label must
  // survive: `all`, `trail`, `ab`.
  EXPECT_EQ(RenameLabelsInQuery("a b ab all trail", rename),
            "lr0 lr1 ab all trail");
  EXPECT_EQ(RenameLabelsInQuery("(a|b)+ & ~a", rename), "(lr0|lr1)+ & ~lr0");
  EXPECT_EQ(RenameLabelsInQuery("q(x) :- a(x, y)", rename),
            "q(x) :- lr0(x, y)");
  // Two-phase renaming: a swap must not collapse the labels.
  std::map<std::string, std::string> swap = {{"a", "b"}, {"b", "a"}};
  EXPECT_EQ(RenameLabelsInQuery("a b", swap), "b a");
}

TEST(MinimizerTest, PinsFirstCheckAndHandlesUnparsableGraph) {
  // A case whose graph text does not parse is the one divergence we can
  // manufacture deterministically; the minimizer must pin that check,
  // report reproduced, and leave the (unshrinkable) case intact.
  FuzzCase c;
  c.seed = 123;
  c.language = QueryLanguage::kRpq;
  c.query_text = "a";
  c.graph_text = "node n0 :N\nthis is not a graph line\n";
  MinimizeOptions options;
  options.oracle.engine_checks = false;
  MinimizeResult r = MinimizeCase(c, options);
  EXPECT_TRUE(r.reproduced);
  EXPECT_EQ(r.check, "case.graph-parse");
  EXPECT_GT(r.evaluations, 0u);
  EXPECT_EQ(r.reduced.graph_text, c.graph_text);
}

TEST(MinimizerTest, PassingCaseIsNotReproduced) {
  FuzzerOptions gen;
  FuzzCase c = GenCase(CaseSeed(31, 4), gen);
  MinimizeOptions options;
  options.oracle.engine_checks = false;
  MinimizeResult r = MinimizeCase(c, options);
  EXPECT_FALSE(r.reproduced);
}

TEST(MinimizerTest, EmitRegressionTestContainsReplayableCase) {
  FuzzerOptions gen;
  FuzzCase c = GenCase(CaseSeed(31, 7), gen);
  std::string test = EmitRegressionTest(c, "rpq.reference");
  EXPECT_NE(test.find("TEST(FuzzRegression,"), std::string::npos);
  EXPECT_NE(test.find("RpqReferenceSeed"), std::string::npos);
  // The embedded raw string must replay through ParseFuzzCase; extract it
  // and check.
  size_t start = test.find("R\"case(");
  size_t end = test.find(")case\"");
  ASSERT_NE(start, std::string::npos);
  ASSERT_NE(end, std::string::npos);
  std::string embedded = test.substr(start + 7, end - start - 7);
  Result<FuzzCase> back = ParseFuzzCase(embedded);
  ASSERT_TRUE(back.ok()) << back.error().message();
  EXPECT_EQ(back.value().query_text, c.query_text);
}

TEST(MetamorphicTest, CanonicalEvalMatchesHandComputedRpq) {
  FuzzCase c;
  c.seed = 1;
  c.language = QueryLanguage::kRpq;
  c.query_text = "a+";
  c.graph_text =
      "node n0 :N\nnode n1 :N\nnode n2 :N\n"
      "edge e0 :a n0 -> n1\nedge e1 :a n1 -> n2\n";
  Result<PropertyGraph> g = ParseCaseGraph(c);
  ASSERT_TRUE(g.ok());
  OracleOptions options;
  Result<CanonicalResult> rows = EvalCanonical(g.value(), c, options);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().rows,
            (std::vector<std::string>{"(n0, n1)", "(n0, n2)", "(n1, n2)"}));
}

}  // namespace
}  // namespace fuzz
}  // namespace gqzoo
