#ifndef GQZOO_NESTED_REGULAR_QUERIES_H_
#define GQZOO_NESTED_REGULAR_QUERIES_H_

#include <string>
#include <vector>

#include "src/crpq/crpq.h"
#include "src/crpq/eval.h"
#include "src/util/result.h"

namespace gqzoo {

/// Nested CRPQs / regular queries (Section 3.1.3, after Reutter, Romero &
/// Vardi's Datalog-like syntax): a sequence of *rules*, each defining a
/// binary virtual edge label by a CRPQ over the base labels and previously
/// defined rules, plus a main CRPQ that may use all of them. Because rules
/// can appear under Kleene star in later RPQs, this closes CRPQs under the
/// transitive closure that flat CRPQs lack (Examples 14–15; Proposition 24
/// identifies this as what CoreGQL is missing for NLOGSPACE).
struct RegularQueryRule {
  std::string name;  // the virtual edge label being defined
  Crpq query;        // must have exactly two head variables
};

struct RegularQuery {
  std::vector<RegularQueryRule> rules;
  Crpq main;
};

/// Parses the Datalog-like syntax; rules separated by `;`, the last query
/// (with any head) is the main one. Rule names may be used as labels in
/// later rules' regexes:
///
///     twoWay(x, y) := Transfer(x, y), Transfer(y, x) ;
///     q(u, v) := twoWay*(u, v)
Result<RegularQuery> ParseRegularQuery(const std::string& text);

/// Evaluates by stratum: each rule is materialized as virtual edges (named
/// "name#i") added to a working copy of the graph, in order; then the main
/// CRPQ runs on the extended graph. Each rule and the main query run over
/// a snapshot of the working copy built just before it, so the caller's
/// `options.snapshot` is ignored. Rules must not reference later rules or
/// themselves (checked).
Result<CrpqResult> EvalRegularQuery(const EdgeLabeledGraph& g,
                                    const RegularQuery& query,
                                    const CrpqEvalOptions& options = {});

}  // namespace gqzoo

#endif  // GQZOO_NESTED_REGULAR_QUERIES_H_
