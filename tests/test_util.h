#ifndef GQZOO_TESTS_TEST_UTIL_H_
#define GQZOO_TESTS_TEST_UTIL_H_

#include <string>
#include <vector>

#include "src/automata/nfa.h"
#include "src/coregql/group_eval.h"
#include "src/coregql/query.h"
#include "src/crpq/eval.h"
#include "src/datatest/dl_eval.h"
#include "src/graph/csr.h"
#include "src/graph/graph.h"
#include "src/graph/path_binding.h"
#include "src/regex/parser.h"

namespace gqzoo {
namespace testing_util {

/// Parses a plain-dialect regex or aborts (test convenience).
RegexPtr Rx(const std::string& text);
/// Parses a dl-dialect regex or aborts.
RegexPtr DlRx(const std::string& text);

/// Brute force: all node-to-node paths in `g` from `u` with at most
/// `max_len` edges (walks; edges may repeat).
std::vector<Path> AllPathsFrom(const EdgeLabeledGraph& g, NodeId u,
                               size_t max_len);

/// Brute force: all node-to-node paths u→v with ≤ max_len edges whose edge
/// label word is accepted by `nfa`.
std::vector<Path> MatchingPathsBruteForce(const EdgeLabeledGraph& g,
                                          const Nfa& nfa, NodeId u, NodeId v,
                                          size_t max_len);

/// Brute force l-RPQ semantics (Section 3.1.4) on node-to-node paths up to
/// max_len: all (p, µ) with p from u to v and some accepting run; µ is
/// collected per run, so one path can yield several bindings.
std::vector<PathBinding> MatchingBindingsBruteForce(const EdgeLabeledGraph& g,
                                                    const Nfa& nfa, NodeId u,
                                                    NodeId v, size_t max_len);

/// The evaluators read a `GraphSnapshot`; these build one of `g` for the
/// call, set it in `options`, and evaluate.
Result<CrpqResult> SnapshotEvalCrpq(const EdgeLabeledGraph& g, const Crpq& q,
                                    CrpqEvalOptions options = {});
Result<CrpqResult> SnapshotEvalDlCrpq(const PropertyGraph& g, const Crpq& q,
                                      DlCrpqEvalOptions options = {});
Result<CoreQueryResult> SnapshotEvalCoreGqlQuery(
    const PropertyGraph& g, const CoreGqlQuery& query,
    CoreQueryEvalOptions options = {});
Result<CoreQueryResult> SnapshotRunCoreGql(const PropertyGraph& g,
                                           const std::string& text,
                                           CoreQueryEvalOptions options = {});
Result<CorePathEvalResult> SnapshotEvalPatternPaths(
    const PropertyGraph& g, const CorePattern& pattern,
    CorePathEvalOptions options = {});
Result<GqlEvalResult> SnapshotEvalGqlGroupPattern(
    const PropertyGraph& g, const CorePattern& pattern,
    CorePathEvalOptions options = {});

/// [[R]]_G over a snapshot of `g`, with `regex` compiled against `g`.
std::vector<std::pair<NodeId, NodeId>> SnapshotEvalRpq(
    const EdgeLabeledGraph& g, const Regex& regex);

/// Node names of pairs for readable assertions: {"a1->a2", ...}.
std::vector<std::string> PairNames(const EdgeLabeledGraph& g,
                                   const std::vector<std::pair<NodeId, NodeId>>& pairs);

}  // namespace testing_util
}  // namespace gqzoo

#endif  // GQZOO_TESTS_TEST_UTIL_H_
