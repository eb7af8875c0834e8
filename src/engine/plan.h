#ifndef GQZOO_ENGINE_PLAN_H_
#define GQZOO_ENGINE_PLAN_H_

#include <memory>
#include <optional>
#include <string>
#include <variant>

#include "src/automata/nfa.h"
#include "src/coregql/optimize.h"
#include "src/coregql/query.h"
#include "src/crpq/crpq.h"
#include "src/datatest/dl_rpq.h"
#include "src/engine/language.h"
#include "src/nested/regular_queries.h"
#include "src/planner/explain.h"
#include "src/planner/stats.h"
#include "src/regex/ast.h"
#include "src/rel/wcoj.h"
#include "src/util/query_context.h"
#include "src/util/result.h"
#include "src/util/thread_pool.h"

namespace gqzoo {

/// Compiled forms per language. Parsing and automaton construction happen
/// once at compile time; execution reuses them. Automata resolve label and
/// property names to the graph's interned ids (Nfa::FromRegex takes the
/// graph), which is why the plan cache keys a plan by the graph's
/// vocabulary (see PlanCacheKey).

struct RpqPlan {
  RegexPtr regex;
  Nfa nfa;  // Glushkov automaton, labels resolved against the plan's graph
};

struct CrpqPlan {
  Crpq query;
  /// Per-atom Glushkov automata, parallel to `query.atoms` — compiled once
  /// here so cached plans never recompile them per execution.
  std::vector<Nfa> atom_nfas;
  /// Conjunct execution order from the statistics-driven planner (textual
  /// when compiled without stats), plus the EXPLAIN record behind it.
  std::vector<size_t> join_order;
  ExplainInfo explain;
  /// Set when the planner detected a cyclic core of single-label atoms:
  /// the worst-case-optimal join group, with label ids resolved at
  /// compile time like the NFAs. Execution always honors it.
  std::optional<rel::WcojSpec> wcoj;
};

struct DlCrpqPlan {
  Crpq query;  // atoms carry dl-dialect regexes
  std::vector<DlNfa> atom_nfas;  // parallel to query.atoms
  std::vector<size_t> join_order;
  ExplainInfo explain;
  std::optional<rel::WcojSpec> wcoj;  // see CrpqPlan::wcoj
};

struct CoreGqlPlan {
  CoreGqlQuery query;  // WHERE pushdown (Section 7.1) already applied
  PushdownStats pushdown;  // what the pushdown moved, shown by EXPLAIN
  /// Per-block pattern-entry execution orders + EXPLAIN records, parallel
  /// to `query.blocks`.
  std::vector<std::vector<size_t>> block_orders;
  std::vector<ExplainInfo> block_explains;
  /// Per-block wcoj groups (see CrpqPlan::wcoj), parallel to
  /// `query.blocks`. The baked label ids make these the one CoreGQL
  /// artifact resolved at compile time.
  std::vector<std::optional<rel::WcojSpec>> block_wcoj;
};

struct GqlGroupPlan {
  CorePatternPtr pattern;
};

struct RegularPlan {
  RegularQuery query;
};

/// Path enumeration over a single regex. The dl dialect is tried first
/// (it covers data tests), falling back to the plain dialect — mirroring
/// what the interactive shell always did.
struct PathsPlan {
  RegexPtr regex;
  std::optional<DlNfa> dl_nfa;  // set iff the regex parsed as dl dialect
  std::optional<Nfa> nfa;       // set otherwise (plain dialect)
};

/// A compiled, immutable, shareable query plan. Produced by `CompilePlan`,
/// cached by `PlanCache`, executed by `QueryEngine`. Safe to execute from
/// several threads concurrently (execution only reads it).
struct Plan {
  QueryLanguage language;
  std::string text;       // the source query text
  uint64_t graph_epoch;   // epoch of the graph the plan was compiled against
  // monostate only while under construction in CompilePlan (some
  // alternatives, e.g. RpqPlan's Nfa, are not default-constructible).
  std::variant<std::monostate, RpqPlan, CrpqPlan, DlCrpqPlan, CoreGqlPlan,
               GqlGroupPlan, RegularPlan, PathsPlan>
      compiled;
};

using PlanPtr = std::shared_ptr<const Plan>;

/// Options that change the compiled artifact. Empty: every request
/// compiles one way. The parameter stays for the benchmark's plan replays
/// (bench/e2e/layers.cc), which pass `{}`.
struct PlanOptions {};

/// Parses `text` in `language` and compiles automata against `g`.
/// Parse and validation failures come back as ErrorCode::kParse.
///
/// `stats` (optional, not owned, same epoch as `g`) enables the conjunct
/// planner for CRPQ / dl-CRPQ / CoreGQL plans: atom result sizes are
/// estimated from the per-label statistics and conjuncts are ordered
/// smallest-first, connected-preferred. Without stats, conjuncts keep
/// their textual order. `stats` does not change plan identity: it picks
/// only the join order and the wcoj group, which are answer-neutral, so a
/// cached plan keeps them while later writes drift the statistics.
/// CoreGQL queries are compiled with their WHERE pushdown applied.
Result<PlanPtr> CompilePlan(QueryLanguage language, const std::string& text,
                            const PropertyGraph& g, uint64_t graph_epoch,
                            const PlanOptions& options = {},
                            const SnapshotStats* stats = nullptr);

/// The per-execution settings of a conjunctive plan: the request's limits
/// and context, and the snapshot (plus optional pool) to evaluate over.
struct ConjunctiveRun {
  std::optional<size_t> max_results;
  std::optional<size_t> max_path_length;
  const QueryContext* cancel = nullptr;
  const GraphSnapshot* snapshot = nullptr;
  ThreadPool* pool = nullptr;  // CRPQ atom seeding
  size_t num_shards = 0;
};

/// A conjunctive plan's result rows, rendered as `QueryEngine::Execute`
/// renders them (without the trailing "N rows" line).
struct ConjunctiveRows {
  std::string text;
  size_t num_rows = 0;
  bool truncated = false;
};

/// Evaluates a CRPQ, dl-CRPQ or CoreGQL plan exactly as compiled: its
/// automata, join order, wcoj group and (CoreGQL) pushed-down query. The
/// engine's one execution path; the differential plan legs
/// (src/fuzz/plan_legs.h) run copies of a plan with one of those parts
/// reverted. kInvalidArgument for any other plan.
Result<ConjunctiveRows> EvalConjunctivePlan(const Plan& plan,
                                            const PropertyGraph& g,
                                            const ConjunctiveRun& run);

}  // namespace gqzoo

#endif  // GQZOO_ENGINE_PLAN_H_
