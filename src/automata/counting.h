#ifndef GQZOO_AUTOMATA_COUNTING_H_
#define GQZOO_AUTOMATA_COUNTING_H_

#include "src/automata/nfa.h"
#include "src/graph/csr.h"
#include "src/util/biguint.h"

namespace gqzoo {

/// Number of distinct accepting runs of `a` on `word`. Equals 1 for every
/// accepted word iff the automaton is unambiguous.
BigUint CountAcceptingRuns(const Nfa& a, const std::vector<LabelId>& word);

/// Number of accepting runs of `a` over paths of length ≤ `max_len` from
/// `u` to `v` in `s` (DP over the product graph, Section 6.2; each step
/// expands per NFA transition over exactly the label slice it matches).
/// When `a` is unambiguous (see IsAmbiguous), this equals the number of
/// matching paths from `u` to `v` of length ≤ `max_len` — the paper's
/// recipe for path counting.
BigUint CountRunsOnPaths(const GraphSnapshot& s, const Nfa& a, NodeId u,
                         NodeId v, size_t max_len);

}  // namespace gqzoo

#endif  // GQZOO_AUTOMATA_COUNTING_H_
