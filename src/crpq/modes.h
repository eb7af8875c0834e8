#ifndef GQZOO_CRPQ_MODES_H_
#define GQZOO_CRPQ_MODES_H_

#include <functional>
#include <vector>

#include "src/automata/nfa.h"
#include "src/crpq/crpq.h"
#include "src/graph/csr.h"
#include "src/graph/path_binding.h"
#include "src/pmr/enumerate.h"

namespace gqzoo {

/// Enumerates `mode(σ_{u,v}([[R]]_G))` for the l-RPQ compiled into `nfa`:
///  * kAll — DFS over the trimmed per-pair PMR (infinite sets truncate at
///    the limits);
///  * kShortest — DFS over the shortest-restricted PMR (finite; Example
///    17's grouping-by-endpoint-pair semantics since the PMR is per-pair);
///  * kSimple / kTrail — backtracking search over graph × NFA carrying the
///    set of used nodes/edges (worst-case exponential; the NP-hardness of
///    Section 6.3 lives here).
/// The PMR modes build their product graph from the snapshot's per-label
/// edge lists, and the simple/trail search expands each NFA transition
/// over exactly its label slice. Results are deduplicated (set semantics);
/// a `max_results` truncation keeps an arbitrary (but deterministic)
/// subset.
std::vector<PathBinding> CollectModePaths(const GraphSnapshot& s,
                                          const Nfa& nfa, NodeId u, NodeId v,
                                          PathMode mode,
                                          const EnumerationLimits& limits,
                                          EnumerationStats* stats = nullptr);

}  // namespace gqzoo

#endif  // GQZOO_CRPQ_MODES_H_
