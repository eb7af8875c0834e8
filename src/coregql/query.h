#ifndef GQZOO_COREGQL_QUERY_H_
#define GQZOO_COREGQL_QUERY_H_

#include <optional>
#include <string>
#include <vector>

#include "src/coregql/pattern.h"
#include "src/coregql/pattern_eval.h"
#include "src/coregql/relation.h"
#include "src/rel/wcoj.h"
#include "src/util/result.h"

namespace gqzoo {

/// Set operations between query blocks (GQL's EXCEPT is what Section 5.2's
/// "Turning to Complement for Help" relies on).
enum class CoreSetOp { kUnion, kExcept, kIntersect };

/// A RETURN item: a variable `x` (graph element or bound path) or a
/// property access `x.k` — the Ω sequences of Section 4.1.2.
struct CoreReturnItem {
  enum class Kind { kVar, kProp };
  Kind kind = Kind::kVar;
  std::string var;
  std::string key;

  std::string Name() const {
    return kind == Kind::kVar ? var : var + "." + key;
  }
};

/// One MATCH...RETURN block.
struct CoreMatchBlock {
  struct PatternEntry {
    /// Set for `p = π` path bindings (Section 5.2); the relation then has a
    /// path-valued column p, and evaluation is enumerative (bounded).
    std::optional<std::string> path_var;
    CorePatternPtr pattern;
  };

  std::vector<PatternEntry> patterns;  // joined on shared variables
  CoreCondPtr where;                   // optional, applied after the join
  std::vector<CoreReturnItem> returns;
};

/// A CoreGQL query: blocks combined left-associatively with set operations.
struct CoreGqlQuery {
  std::vector<CoreMatchBlock> blocks;
  std::vector<CoreSetOp> ops;  // size = blocks.size() - 1
};

struct CoreQueryEvalOptions {
  CorePathEvalOptions path_options;
  /// Per-block join orders from the planner (block i joins its pattern
  /// entries in the order `(*block_orders)[i]`). Null, or an entry whose
  /// size does not match the block's pattern count, means textual order.
  const std::vector<std::vector<size_t>>* block_orders = nullptr;
  /// Per-block worst-case-optimal join groups from the planner (parallel
  /// to blocks; an engaged entry replaces that block's cyclic core of
  /// single-label edge patterns with one multiway intersection over the
  /// snapshot's label slices). Entries are evaluated in textual order
  /// regardless (error parity); only the join stage changes. Results are
  /// identical.
  const std::vector<std::optional<rel::WcojSpec>>* block_wcoj = nullptr;
  /// Route the block join through the columnar batch kernel
  /// (rel/batch.h); byte-identical rows and budget charges.
  bool use_batch = false;
};

struct CoreQueryResult {
  CoreRelation relation;
  /// True when some path enumeration hit its limits.
  bool truncated = false;
};

/// Parses the MATCH/WHERE/RETURN surface syntax:
///
///     MATCH (x)-[e:Transfer]->(y) WHERE x.owner = 'Mike' RETURN x, y.owner
///     MATCH p = (x) ((u)->(v) WHERE u.k < v.k)* (y) RETURN p
///       EXCEPT
///     MATCH p = (x) -> * (y) RETURN p
///
/// Keywords are case-insensitive. Rows where a returned property is
/// undefined are dropped (the µ_Ω compatibility rule of Section 4.1.2 —
/// CoreGQL has no nulls).
Result<CoreGqlQuery> ParseCoreGqlQuery(const std::string& text);

/// Evaluates a query. Pattern matching is exact (pair-level reachability)
/// unless a block binds a path variable, in which case that pattern is
/// enumerated under `options.path_options` limits. Requires
/// `options.path_options.snapshot` (kInvalidArgument otherwise).
Result<CoreQueryResult> EvalCoreGqlQuery(const PropertyGraph& g,
                                         const CoreGqlQuery& query,
                                         const CoreQueryEvalOptions& options);

/// Convenience: parse + evaluate.
Result<CoreQueryResult> RunCoreGql(const PropertyGraph& g,
                                   const std::string& text,
                                   const CoreQueryEvalOptions& options);

}  // namespace gqzoo

#endif  // GQZOO_COREGQL_QUERY_H_
