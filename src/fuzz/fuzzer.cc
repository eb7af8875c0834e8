#include "src/fuzz/fuzzer.h"

#include <chrono>
#include <sstream>

#include "src/fuzz/crash_oracle.h"
#include "src/fuzz/metamorphic.h"
#include "src/graph/graph_io.h"

namespace gqzoo {
namespace fuzz {

namespace {

/// Languages the harness generates. kRegular is deliberately absent: it
/// mutates a working copy of the graph, its worst cases are exponential,
/// and no reference leg checks it (see DESIGN.md).
constexpr QueryLanguage kFuzzedLanguages[] = {
    QueryLanguage::kRpq,     QueryLanguage::kCrpq,
    QueryLanguage::kDlCrpq,  QueryLanguage::kCoreGql,
    QueryLanguage::kGqlGroup, QueryLanguage::kPaths,
};

}  // namespace

FuzzStats::FuzzStats() : by_language(kNumQueryLanguages, 0) {}

std::string FuzzStats::ToString() const {
  std::ostringstream out;
  out << cases_run << " cases, " << checks << " checks, " << divergent_cases
      << " divergent";
  if (cases_run > 0) {
    out << "; query parse rate " << (100 * queries_parsed / cases_run) << "%";
  }
  out << "; by language:";
  for (size_t i = 0; i < by_language.size(); ++i) {
    if (by_language[i] == 0) continue;
    out << " " << QueryLanguageName(static_cast<QueryLanguage>(i)) << "="
        << by_language[i];
  }
  if (!leg_checks.empty()) {
    out << "; leg checks:";
    for (const auto& [leg, n] : leg_checks) out << " " << leg << "=" << n;
  }
  return out.str();
}

FuzzCase GenCase(uint64_t case_seed, const FuzzerOptions& options) {
  FuzzCase c;
  c.seed = case_seed;
  FuzzRng rng(case_seed);

  c.language = options.only_language.value_or(
      kFuzzedLanguages[rng.Index(sizeof(kFuzzedLanguages) /
                                 sizeof(kFuzzedLanguages[0]))]);

  FuzzRng graph_rng = rng.Fork(1);
  std::vector<std::string> labels;
  PropertyGraph g = GenGraph(&graph_rng, options.graph, nullptr, &labels);
  c.graph_text = PropertyGraphToText(g);

  // Query generation may use one label beyond the graph's alphabet so that
  // match-nothing atoms show up.
  std::vector<std::string> query_labels = labels;
  if (query_labels.size() < 6 && rng.Percent(25)) {
    query_labels = LabelAlphabet(query_labels.size() + 1);
  }
  FuzzRng query_rng = rng.Fork(2);
  c.query_text =
      GenQueryText(&query_rng, c.language, g, query_labels, options.query,
                   &c.paths_from, &c.paths_to, &c.paths_mode);

  FuzzRng budget_rng = rng.Fork(3);
  if (budget_rng.Percent(options.budget_percent)) {
    if (budget_rng.Percent(70)) {
      c.step_budget = budget_rng.Range(50, 5000);
    } else {
      c.memory_budget = budget_rng.Range(1 << 12, 1 << 20);
    }
  }

  FuzzRng mutation_rng = rng.Fork(4);
  if (mutation_rng.Percent(options.mutation_percent)) {
    c.mutations = GenMutations(&mutation_rng, g, labels, options.mutation);
  }
  return c;
}

FuzzRunResult RunFuzzer(const FuzzerOptions& options, std::ostream* log) {
  FuzzRunResult result;
  const auto start = std::chrono::steady_clock::now();
  const auto deadline =
      start + std::chrono::milliseconds(options.time_budget_ms);

  for (size_t i = 0; i < options.num_cases; ++i) {
    if (options.only_case.has_value() && i != *options.only_case) continue;
    if (options.time_budget_ms != 0 &&
        std::chrono::steady_clock::now() >= deadline) {
      if (log != nullptr) {
        *log << "time budget reached after " << result.stats.cases_run
             << " cases\n";
      }
      break;
    }

    const uint64_t case_seed = CaseSeed(options.seed, i);
    FuzzCase c = GenCase(case_seed, options);
    ++result.stats.cases_run;
    ++result.stats.by_language[static_cast<size_t>(c.language)];

    OracleReport report = RunOracle(c, options.oracle);
    if (report.parsed) ++result.stats.queries_parsed;
    if (report.ok() && !c.mutations.empty()) {
      RunMutationOracle(c, options.oracle, &report);
    }
    if (report.ok() && !c.mutations.empty()) {
      RunCrashOracle(c, &report);
    }
    if (report.ok() && options.metamorphic) {
      FuzzRng meta_rng = FuzzRng(c.seed).Fork(7);
      RunMetamorphic(c, &meta_rng, options.oracle, &report);
    }
    result.stats.checks += report.checks;
    for (const auto& [leg, n] : report.leg_checks) {
      result.stats.leg_checks[leg] += n;
    }

    if (!report.ok()) {
      ++result.stats.divergent_cases;
      FuzzFailure failure;
      failure.case_index = i;
      failure.original = c;
      failure.minimized = c;
      failure.check = report.divergences.front().check;
      failure.detail = report.divergences.front().detail;
      if (log != nullptr) {
        *log << "case " << i << " (seed " << case_seed << ") FAILED ["
             << failure.check << "] " << failure.detail << "\n";
      }
      if (options.minimize) {
        MinimizeOptions minimize_options;
        minimize_options.oracle = options.oracle;
        minimize_options.include_metamorphic = options.metamorphic;
        MinimizeResult minimized = MinimizeCase(c, minimize_options);
        if (minimized.reproduced) {
          failure.minimized = minimized.reduced;
          failure.check = minimized.check;
        }
        if (log != nullptr) {
          *log << "minimized (" << minimized.evaluations
               << " verdict runs):\n"
               << failure.minimized.ToText();
        }
      }
      result.failures.push_back(std::move(failure));
      if (result.failures.size() >= options.max_failures) {
        if (log != nullptr) {
          *log << "stopping after " << result.failures.size()
               << " failures\n";
        }
        break;
      }
    }

    if (log != nullptr && (i + 1) % 1000 == 0) {
      *log << "... " << (i + 1) << " cases, " << result.stats.checks
           << " checks, " << result.failures.size() << " failures\n";
    }
  }
  return result;
}

}  // namespace fuzz
}  // namespace gqzoo
