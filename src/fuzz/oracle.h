#ifndef GQZOO_FUZZ_ORACLE_H_
#define GQZOO_FUZZ_ORACLE_H_

#include <map>
#include <string>
#include <vector>

#include "src/engine/engine.h"
#include "src/fuzz/fuzz_case.h"
#include "src/util/thread_pool.h"

namespace gqzoo {
namespace fuzz {

/// Knobs for one oracle run. The limits are deliberately small: every case
/// runs the whole leg matrix, and small limits keep the per-case cost
/// bounded even on adversarial generated inputs (dense products, nested
/// stars).
struct OracleOptions {
  /// Enumeration caps shared by every leg of a pair (both legs must see
  /// the same limits or truncation itself becomes a false divergence).
  size_t max_results = 80;
  size_t max_path_length = 10;
  size_t max_bindings_per_pair = 200;

  /// Pool + shard count for the serial-vs-sharded RPQ/CRPQ legs. A null
  /// pool still exercises the sharded code path sequentially.
  ThreadPool* pool = nullptr;
  size_t rpq_shards = 3;

  /// Shared engine for the engine-level legs (cold-vs-cached plan, the
  /// plan legs of src/fuzz/plan_legs.h, budget and fail-point parity). The oracle calls `SetGraph` on it per case. Null skips the
  /// engine matrix (library-only mode, used by some unit tests).
  QueryEngine* engine = nullptr;
  bool engine_checks = true;

  /// Run the governed legs: budget injection (status must be the
  /// ungoverned status or RESOURCE_EXHAUSTED — never a wrong answer) and
  /// fail-point parity across join orders.
  bool error_parity = true;

  /// Cross-check set-semantics RPQ answers against SPARQL-bag counts
  /// (positivity must agree) on small graphs.
  bool bag_checks = true;
};

/// One observed disagreement. `check` is a stable dotted name for the leg
/// pair ("rpq.reference", "engine.cold-vs-cached", ...); `detail` is a
/// human-readable explanation, truncated to stay log-friendly.
struct Divergence {
  std::string check;
  std::string detail;
};

/// Outcome of running one case through the whole matrix.
struct OracleReport {
  std::vector<Divergence> divergences;
  /// Individual leg comparisons performed (for throughput reporting).
  size_t checks = 0;
  /// Comparisons per definitional-reference leg, per plan leg
  /// (src/fuzz/plan_legs.h) and of mutation.cached-vs-cold (see
  /// RunMutationOracle); a case whose reference ran out of its work budget
  /// counts under "<leg>.inconclusive".
  std::map<std::string, size_t> leg_checks;
  /// The case's query text parsed at the library level. Cases that fail to
  /// parse still exercise the parse-error-parity legs, but a fuzzer wants
  /// to know its generator's hit rate.
  bool parsed = false;

  bool ok() const { return divergences.empty(); }
  void Add(const std::string& check, const std::string& detail);
  std::string ToString() const;
};

/// Compares two engine responses: the same status and error code, and the
/// same rendered rows, row count and truncation flag. Empty when they
/// agree; otherwise says what differs, calling `a` "first" and `b`
/// "second".
std::string ResponseMismatch(const Result<QueryResponse>& a,
                             const Result<QueryResponse>& b);

/// Runs `c` through every applicable leg pair and records any
/// disagreement:
///
///   library level   RPQ, CRPQ and paths answers vs the definitional
///                   reference (src/fuzz/reference.h), built vs mapped
///                   snapshot, serial vs sharded, row vs batch kernel,
///                   rerun determinism, bag-positivity vs set answers,
///                   governed-rerun determinism (same budget => same
///                   rows, same cause);
///   engine level    library status vs engine status (same ErrorCode),
///                   cold vs cached plan (byte-identical), budget
///                   injection (ungoverned status or RESOURCE_EXHAUSTED,
///                   nothing else), armed fail-points (expected code or
///                   clean completion);
///   plan level      the engine's plan evaluated below it: planned leg vs
///                   Execute, and planned vs textual join order, vs no
///                   wcoj group, vs no WHERE pushdown; budget injection
///                   and fail-points in textual order.
///
/// Never asserts or throws: all disagreement is data in the report, so the
/// fuzzer can minimize and persist it.
OracleReport RunOracle(const FuzzCase& c, const OracleOptions& options);

}  // namespace fuzz
}  // namespace gqzoo

#endif  // GQZOO_FUZZ_ORACLE_H_
