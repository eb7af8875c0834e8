// gqzoo_fuzz: randomized differential fuzzing harness for the query zoo.
//
// Every case is derived from a single 64-bit seed: a random property graph
// (paper-shaped families: chains, cliques, diamonds, parallel chains), a
// random query in one of the zoo languages, and optionally an injected
// resource budget. Each case runs through the full leg matrix
// (definitional reference vs CSR evaluators, built vs mapped snapshot,
// serial vs sharded, the plan legs below the engine (textual order, no
// wcoj, no pushdown), cold vs cached plan,
// budget/fail-point injection) plus the
// metamorphic properties; any disagreement is minimized with delta
// debugging and emitted as a ready-to-commit corpus file and regression
// test.
//
// Usage:
//   gqzoo_fuzz --seed=42 --cases=10000        # campaign
//   gqzoo_fuzz --smoke                        # CI: ~60s time-boxed run
//   gqzoo_fuzz --seed=42 --case=137           # regenerate one case
//   gqzoo_fuzz --seed=42 --case=137 --print   # dump the case, don't run
//   gqzoo_fuzz --case-file=f.case [--minimize]
//   gqzoo_fuzz --seed=42 --cases=500 --lang=crpq
//   gqzoo_fuzz ... --out=repro.case           # where to write a failure

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "src/fuzz/crash_oracle.h"
#include "src/fuzz/fuzzer.h"
#include "src/fuzz/metamorphic.h"
#include "src/fuzz/minimize.h"
#include "src/fuzz/mutation_gen.h"
#include "src/fuzz/oracle.h"
#include "src/util/thread_pool.h"

namespace {

using gqzoo::QueryEngine;
using gqzoo::QueryLanguage;
using gqzoo::Result;
using gqzoo::ThreadPool;

struct CliOptions {
  uint64_t seed = 1;
  size_t cases = 1000;
  std::optional<size_t> only_case;
  std::optional<QueryLanguage> language;
  std::string case_file;
  std::string out_file = "fuzz_repro.case";
  uint64_t time_budget_ms = 0;
  bool smoke = false;
  bool minimize_flag = false;
  bool print_only = false;
  bool no_engine = false;
  bool quiet = false;
};

bool ParseFlag(const std::string& arg, const char* name, std::string* value) {
  std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seed=N] [--cases=N] [--case=I] [--lang=NAME]\n"
               "          [--time-budget-ms=N] [--smoke] [--minimize]\n"
               "          [--case-file=PATH] [--out=PATH] [--print]\n"
               "          [--no-engine] [--quiet]\n",
               argv0);
  return 2;
}

/// Builds the shared execution context: one engine (its own small pool)
/// reused across cases via SetGraph, one helper pool for the sharded legs.
struct Harness {
  Harness()
      : pool(2),
        engine(gqzoo::PropertyGraph(), [] {
          QueryEngine::Options options;
          options.num_threads = 2;
          options.rpq_shards = 3;
          return options;
        }()) {}

  ThreadPool pool;
  QueryEngine engine;
};

int RunCaseFile(const CliOptions& cli) {
  std::ifstream in(cli.case_file);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", cli.case_file.c_str());
    return 2;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  Result<gqzoo::fuzz::FuzzCase> c = gqzoo::fuzz::ParseFuzzCase(buffer.str());
  if (!c.ok()) {
    std::fprintf(stderr, "bad case file: %s\n", c.error().message().c_str());
    return 2;
  }

  Harness harness;
  gqzoo::fuzz::OracleOptions oracle;
  oracle.pool = &harness.pool;
  if (cli.no_engine) {
    oracle.engine_checks = false;
  } else {
    oracle.engine = &harness.engine;
  }

  gqzoo::fuzz::OracleReport report = RunOracle(c.value(), oracle);
  if (report.ok() && !c.value().mutations.empty()) {
    RunMutationOracle(c.value(), oracle, &report);
  }
  if (report.ok() && !c.value().mutations.empty()) {
    RunCrashOracle(c.value(), &report);
  }
  if (report.ok()) {
    gqzoo::fuzz::FuzzRng rng =
        gqzoo::fuzz::FuzzRng(c.value().seed).Fork(7);
    RunMetamorphic(c.value(), &rng, oracle, &report);
  }
  std::cout << report.ToString() << "\n";
  if (report.ok()) return 0;

  gqzoo::fuzz::FuzzCase repro = c.value();
  std::string check = report.divergences.front().check;
  if (cli.minimize_flag) {
    gqzoo::fuzz::MinimizeOptions minimize_options;
    minimize_options.oracle = oracle;
    gqzoo::fuzz::MinimizeResult minimized =
        MinimizeCase(c.value(), minimize_options);
    if (minimized.reproduced) {
      repro = minimized.reduced;
      check = minimized.check;
      std::cout << "minimized after " << minimized.evaluations
                << " verdict runs:\n"
                << repro.ToText();
    }
  }
  std::ofstream out(cli.out_file);
  out << repro.ToText();
  std::cout << "# repro written to " << cli.out_file << "\n"
            << EmitRegressionTest(repro, check);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    if (ParseFlag(arg, "seed", &value)) {
      cli.seed = strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "cases", &value)) {
      cli.cases = strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "case", &value)) {
      cli.only_case = strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "time-budget-ms", &value)) {
      cli.time_budget_ms = strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "lang", &value)) {
      Result<QueryLanguage> lang = gqzoo::ParseQueryLanguage(value);
      if (!lang.ok()) {
        std::fprintf(stderr, "unknown language '%s'\n", value.c_str());
        return 2;
      }
      cli.language = lang.value();
    } else if (ParseFlag(arg, "case-file", &value)) {
      cli.case_file = value;
    } else if (ParseFlag(arg, "out", &value)) {
      cli.out_file = value;
    } else if (arg == "--smoke") {
      cli.smoke = true;
    } else if (arg == "--minimize") {
      cli.minimize_flag = true;
    } else if (arg == "--print") {
      cli.print_only = true;
    } else if (arg == "--no-engine") {
      cli.no_engine = true;
    } else if (arg == "--quiet") {
      cli.quiet = true;
    } else {
      return Usage(argv[0]);
    }
  }

  if (!cli.case_file.empty()) return RunCaseFile(cli);

  gqzoo::fuzz::FuzzerOptions options;
  options.seed = cli.seed;
  options.num_cases = cli.cases;
  options.only_case = cli.only_case;
  options.only_language = cli.language;
  options.time_budget_ms = cli.time_budget_ms;
  options.minimize = true;
  if (cli.smoke) {
    // CI budget: time-boxed, capped case count so a fast machine still
    // terminates promptly; failures upload fuzz_repro.case as an artifact.
    options.time_budget_ms =
        cli.time_budget_ms == 0 ? 60000 : cli.time_budget_ms;
    options.num_cases = cli.cases == 1000 ? 4000 : cli.cases;
  }

  if (cli.print_only) {
    size_t index = cli.only_case.value_or(0);
    gqzoo::fuzz::FuzzCase c =
        GenCase(gqzoo::fuzz::CaseSeed(options.seed, index), options);
    std::cout << c.ToText();
    return 0;
  }

  Harness harness;
  options.oracle.pool = &harness.pool;
  if (cli.no_engine) {
    options.oracle.engine_checks = false;
  } else {
    options.oracle.engine = &harness.engine;
  }

  gqzoo::fuzz::FuzzRunResult run =
      RunFuzzer(options, cli.quiet ? nullptr : &std::cerr);
  std::cout << run.stats.ToString() << "\n";

  if (!run.ok()) {
    const gqzoo::fuzz::FuzzFailure& first = run.failures.front();
    std::ofstream out(cli.out_file);
    out << first.minimized.ToText();
    std::cout << "FAILED: " << run.failures.size() << " divergent case(s); "
              << "first: case " << first.case_index << " [" << first.check
              << "] " << first.detail << "\n"
              << "# repro written to " << cli.out_file << "\n"
              << "# reproduce: gqzoo_fuzz --case-file=" << cli.out_file
              << " --minimize\n"
              << EmitRegressionTest(first.minimized, first.check);
    return 1;
  }
  std::cout << "OK: no divergences\n";
  return 0;
}
