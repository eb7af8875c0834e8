#ifndef GQZOO_COREGQL_OPTIMIZE_H_
#define GQZOO_COREGQL_OPTIMIZE_H_

#include "src/coregql/query.h"

namespace gqzoo {

/// Query-level optimizations for CoreGQL — Section 7.1 ("Relational
/// Algebra over Pattern Matching"): "some relational operations correspond
/// to constructs in pattern matching, and can be pushed down to or lifted
/// from the pattern matching layer. Exploring this interaction can support
/// optimization, e.g., by reducing the size of intermediate results."
///
/// Implemented rewrites (all answer-preserving):
///
///  1. Label pushdown: a top-level conjunct `x:L` in the block's WHERE is
///     removed and installed as the label constraint of every unlabeled
///     atom binding `x` (all occurrences of a singleton variable must bind
///     the same element, so constraining each is sound). If `x` already
///     carries a *different* label somewhere, the block is contradictory
///     and the conjunct is kept (the selection will empty it at runtime).
///
///  2. Constant-selection pushdown: a top-level conjunct `x.k op c` is
///     moved into a pattern-level condition around the first pattern that
///     binds `x`, so the filter applies during matching rather than after
///     the join. Each pattern gets one condition, the conjunction of its
///     selections.
///
/// Conjunctions are rebuilt as balanced AND trees, so a WHERE that passes
/// the parser's depth bound stays shallow however many conjuncts it has.
///
/// Returns the rewritten query; `stats` (optional) reports what fired.
struct PushdownStats {
  size_t labels_pushed = 0;
  size_t selections_pushed = 0;
};

CoreGqlQuery PushDownConditions(const CoreGqlQuery& query,
                                PushdownStats* stats = nullptr);

}  // namespace gqzoo

#endif  // GQZOO_COREGQL_OPTIMIZE_H_
