#ifndef GQZOO_FUZZ_REFERENCE_H_
#define GQZOO_FUZZ_REFERENCE_H_

#include <optional>
#include <utility>
#include <vector>

#include "src/crpq/crpq.h"
#include "src/graph/graph.h"
#include "src/graph/path_binding.h"
#include "src/regex/ast.h"

namespace gqzoo {
namespace fuzz {

/// A definitional reference for RPQs, CRPQs and mode-restricted paths,
/// written straight from the paper's definitions so the oracle has
/// something to check the evaluators against that shares none of their
/// machinery: no automata, no product graph, no CSR, no joins. It is meant
/// for fuzz-sized inputs (about ten nodes, three atoms, paths of about ten
/// edges) and gives up — returns nullopt — when a case would cost more
/// than a fixed work budget.

/// `[[R]]_G` (Section 6.2's semantics, computed over the regex AST as
/// binary relations on nodes): an atom denotes its matching edges (the
/// converse for `~a`), concatenation is composition, union is union, and
/// `R*` / `R+` are the reflexive-transitive / transitive closures, found by
/// fixpoint. Captures are ignored. Sorted, duplicate-free.
std::vector<std::pair<NodeId, NodeId>> ReferenceRpq(const EdgeLabeledGraph& g,
                                                    const Regex& regex);

/// The mode functions of Section 3.1.5 on an explicit set of path
/// bindings: `shortest` keeps the bindings whose path length is minimal in
/// the set, `simple` keeps simple paths, `trail` keeps trails, `all` is the
/// identity.
std::vector<PathBinding> ApplyMode(PathMode mode,
                                   std::vector<PathBinding> bindings);

/// `mode(σ_{u,v}([[R]]_G))` restricted to paths of at most `max_length`
/// edges (Sections 3.1.4-3.1.5): every walk from `u` of that length is
/// enumerated over `OutEdges`, its label word matched against the AST by
/// backtracking (yielding one capture binding per way of matching), and the
/// bindings ending at `v` are filtered by the mode's definition. Paths are
/// one-way, so inverse atoms match nothing here. Sorted, duplicate-free;
/// nullopt when the work budget ran out.
std::optional<std::vector<PathBinding>> ReferenceModePaths(
    const EdgeLabeledGraph& g, const Regex& regex, NodeId u, NodeId v,
    PathMode mode, size_t max_length);

/// The answers of a CRPQ with list variables (Sections 3.1.2 and 3.1.5) by
/// trying every assignment of its endpoint variables to nodes: an atom
/// without list variables holds when the pair is in ReferenceRpq; an atom
/// with list variables contributes the µ projections of
/// ReferenceModePaths for the pair. Rows follow `q.head` and come sorted
/// and duplicate-free. nullopt when the query names an unknown node
/// constant (an evaluation error) or exhausts the work budget. Only
/// meaningful for queries the evaluators accept: they reject two-way atoms
/// that carry list variables, which would match no path here.
std::optional<std::vector<std::vector<CrpqValue>>> ReferenceCrpq(
    const EdgeLabeledGraph& g, const Crpq& q, size_t max_path_length);

}  // namespace fuzz
}  // namespace gqzoo

#endif  // GQZOO_FUZZ_REFERENCE_H_
