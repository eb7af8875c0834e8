// Replays every committed fuzz case under tests/corpus/ through the full
// library oracle and the metamorphic suite. Each file is a divergence the
// harness once found (then minimized) or a hand-written probe of a fixed
// bug; keeping them green means the fix stayed fixed.
//
// Engine-level legs run too, against a per-suite engine, so the corpus
// also covers plan-cache, plan-leg, and error-parity behavior.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/fuzz/crash_oracle.h"
#include "src/fuzz/metamorphic.h"
#include "src/fuzz/minimize.h"
#include "src/fuzz/mutation_gen.h"
#include "src/fuzz/oracle.h"
#include "src/util/thread_pool.h"

#ifndef GQZOO_CORPUS_DIR
#error "GQZOO_CORPUS_DIR must point at tests/corpus"
#endif

namespace gqzoo {
namespace fuzz {
namespace {

std::vector<std::filesystem::path> CorpusFiles() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(GQZOO_CORPUS_DIR)) {
    if (entry.path().extension() == ".case") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(FuzzCorpusTest, HasCommittedCases) {
  EXPECT_GE(CorpusFiles().size(), 3u);
}

TEST(FuzzCorpusTest, EveryCaseReplaysClean) {
  QueryEngine::Options engine_options;
  engine_options.num_threads = 2;
  engine_options.rpq_shards = 3;
  QueryEngine engine(PropertyGraph(), engine_options);
  ThreadPool pool(2);

  for (const std::filesystem::path& file : CorpusFiles()) {
    SCOPED_TRACE(file.filename().string());
    std::ifstream in(file);
    ASSERT_TRUE(in.good());
    std::ostringstream buffer;
    buffer << in.rdbuf();

    Result<FuzzCase> c = ParseFuzzCase(buffer.str());
    ASSERT_TRUE(c.ok()) << c.error().message();

    OracleOptions options;
    options.engine = &engine;
    options.pool = &pool;
    OracleReport report = RunOracle(c.value(), options);
    if (report.ok() && !c.value().mutations.empty()) {
      RunMutationOracle(c.value(), options, &report);
    }
    if (report.ok() && !c.value().mutations.empty()) {
      RunCrashOracle(c.value(), &report);
    }
    if (report.ok()) {
      FuzzRng rng = FuzzRng(c.value().seed).Fork(7);
      RunMetamorphic(c.value(), &rng, options, &report);
    }
    EXPECT_TRUE(report.ok()) << report.ToString();
  }
}

TEST(FuzzCorpusTest, OversizedCaseIsInvalidArgumentUpFront) {
  std::string huge(kMaxFuzzCaseBytes + 1, '#');
  Result<FuzzCase> r = ParseFuzzCase(huge);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kInvalidArgument);
}

TEST(FuzzCorpusTest, EveryByteTruncationOfEveryCaseFailsOrParsesCleanly) {
  // A corpus file cut at any byte (editor crash, partial checkout) must
  // never crash the loader or yield a half-parsed case: each cut either
  // errors, or parses into a case whose graph text still stands alone.
  for (const std::filesystem::path& file : CorpusFiles()) {
    SCOPED_TRACE(file.filename().string());
    std::ifstream in(file);
    ASSERT_TRUE(in.good());
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();
    for (size_t cut = 0; cut < text.size(); ++cut) {
      Result<FuzzCase> r = ParseFuzzCase(text.substr(0, cut));
      if (!r.ok()) continue;  // clean rejection is always acceptable
      // An accepted prefix must be internally consistent: the graph block
      // parses, and the case round-trips through its own serializer.
      ASSERT_TRUE(ParseCaseGraph(r.value()).ok()) << "cut at " << cut;
      Result<FuzzCase> again = ParseFuzzCase(r.value().ToText());
      ASSERT_TRUE(again.ok()) << "cut at " << cut;
      EXPECT_EQ(again.value().ToText(), r.value().ToText())
          << "cut at " << cut;
    }
  }
}

}  // namespace
}  // namespace fuzz
}  // namespace gqzoo
