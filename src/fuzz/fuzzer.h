#ifndef GQZOO_FUZZ_FUZZER_H_
#define GQZOO_FUZZ_FUZZER_H_

#include <cstdint>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "src/fuzz/fuzz_case.h"
#include "src/fuzz/graph_gen.h"
#include "src/fuzz/minimize.h"
#include "src/fuzz/mutation_gen.h"
#include "src/fuzz/oracle.h"
#include "src/fuzz/query_gen.h"

namespace gqzoo {
namespace fuzz {

struct FuzzerOptions {
  /// Campaign seed. Case `i` derives its own seed via `CaseSeed(seed, i)`,
  /// so any single case regenerates without replaying the run.
  uint64_t seed = 1;
  size_t num_cases = 1000;
  /// Stop after this much wall time (0 = run all cases). A time-limited
  /// run is still case-for-case deterministic, but the *number* of cases
  /// reached varies with machine speed — reproduce findings by case seed,
  /// not by campaign length.
  uint64_t time_budget_ms = 0;
  /// Run only this case index (for `--seed=S --case=I` repro).
  std::optional<size_t> only_case;
  /// Restrict generation to one language (debugging aid).
  std::optional<QueryLanguage> only_language;

  OracleOptions oracle;
  GraphGenOptions graph;
  QueryGenOptions query;
  MutationGenOptions mutation;
  /// Percent of cases that carry a mutation sequence (and run the
  /// delta-vs-rebuild differential oracle on top of the read-path matrix).
  uint64_t mutation_percent = 35;
  /// Run the metamorphic suite on cases the oracle passes.
  bool metamorphic = true;
  /// Delta-debug failures down before reporting them.
  bool minimize = true;
  /// Stop the campaign after this many distinct failures.
  size_t max_failures = 5;
  /// Percent of cases that carry an injected step/memory budget for the
  /// error-parity legs.
  uint64_t budget_percent = 25;
};

struct FuzzFailure {
  size_t case_index = 0;
  FuzzCase original;
  FuzzCase minimized;
  std::string check;   // first failing check name
  std::string detail;  // first divergence detail
};

struct FuzzStats {
  size_t cases_run = 0;
  size_t queries_parsed = 0;  // generator validity rate numerator
  size_t checks = 0;          // oracle leg comparisons executed
  /// Comparisons per definitional-reference leg ("rpq.reference", ...).
  std::map<std::string, size_t> reference_checks;
  size_t divergent_cases = 0;
  std::vector<size_t> by_language;  // indexed by QueryLanguage

  FuzzStats();
  std::string ToString() const;
};

struct FuzzRunResult {
  FuzzStats stats;
  std::vector<FuzzFailure> failures;
  bool ok() const { return failures.empty(); }
};

/// Deterministically generates case `i` of a campaign: the case's graph,
/// query, endpoints, and injected budgets all derive from
/// `CaseSeed(options.seed, i)` through decorrelated forks, so generator
/// changes to one stream do not cascade into the others.
FuzzCase GenCase(uint64_t case_seed, const FuzzerOptions& options);

/// Runs the campaign: generate, oracle, metamorphic, minimize. Progress
/// and failures stream to `log` when non-null. Deterministic given
/// `options` (modulo `time_budget_ms` cutting the run short).
FuzzRunResult RunFuzzer(const FuzzerOptions& options,
                        std::ostream* log = nullptr);

}  // namespace fuzz
}  // namespace gqzoo

#endif  // GQZOO_FUZZ_FUZZER_H_
