#ifndef GQZOO_PMR_ENUMERATE_H_
#define GQZOO_PMR_ENUMERATE_H_

#include <functional>
#include <optional>

#include "src/graph/path_binding.h"
#include "src/pmr/pmr.h"
#include "src/util/biguint.h"
#include "src/util/cancellation.h"

namespace gqzoo {

/// Enumerates SPaths(pmr) together with their capture bindings, by DFS over
/// the trimmed PMR (call `Trim()` first for the output-linear-delay
/// guarantee; on a trimmed PMR every DFS step lies on some S→T walk).
/// The callback may return false to stop early.
EnumerationStats EnumeratePathBindings(
    const Pmr& pmr, const EnumerationLimits& limits,
    const std::function<bool(const PathBinding&)>& emit);

/// All results as a vector (deduplicated, sorted — set semantics; two
/// distinct PMR walks can map to the same (path, µ)).
std::vector<PathBinding> CollectPathBindings(const Pmr& pmr,
                                             const EnumerationLimits& limits,
                                             EnumerationStats* stats = nullptr);

/// Enumerates SPaths in nondecreasing length order — the k-shortest-paths
/// flavor of Section 7.1's "Evaluation Algorithms" (the Eppstein
/// direction), running directly on the succinct representation. Works on
/// PMRs with infinitely many paths: the first `limits.max_results` results
/// stream out in order. Best-first search over partial walks (memory grows
/// with the frontier, unlike the DFS enumerator). Distinct PMR walks that
/// map to the same (path, µ) are emitted separately, exactly as in
/// EnumeratePathBindings.
EnumerationStats EnumeratePathBindingsByLength(
    const Pmr& pmr, const EnumerationLimits& limits,
    const std::function<bool(const PathBinding&)>& emit);

/// The k shortest distinct results, in nondecreasing length order (ties in
/// deterministic walk order). Convenience wrapper over the ordered
/// enumerator with on-the-fly deduplication; `ctx` (optional) governs the
/// search like `EnumerationLimits::cancel`.
std::vector<PathBinding> KShortestPathBindings(const Pmr& pmr, size_t k,
                                               const QueryContext* ctx =
                                                   nullptr);

/// Number of S→T walks in the PMR, or nullopt if infinite. (This counts
/// PMR walks, which upper-bounds |SPaths|; on PMRs built by BuildPmr from
/// an unambiguous NFA it equals the number of distinct matching paths.)
std::optional<BigUint> CountPmrWalks(const Pmr& pmr);

}  // namespace gqzoo

#endif  // GQZOO_PMR_ENUMERATE_H_
