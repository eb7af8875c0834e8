#include "src/crpq/modes.h"

#include "src/automata/product_search.h"
#include "src/pmr/build.h"

namespace gqzoo {

std::vector<PathBinding> CollectModePaths(const GraphSnapshot& s,
                                          const Nfa& nfa, NodeId u, NodeId v,
                                          PathMode mode,
                                          const EnumerationLimits& limits,
                                          EnumerationStats* stats) {
  std::vector<PathBinding> results;
  EnumerationStats local;
  switch (mode) {
    case PathMode::kAll:
    case PathMode::kShortest: {
      Pmr pmr = BuildPmrBetween(s, nfa, u, v, limits.cancel);
      if (mode == PathMode::kShortest) pmr = pmr.ShortestRestriction();
      // Charge the succinct representation itself (nodes + edges) for the
      // duration of the enumeration; the emitted bindings are charged by
      // the enumerator.
      ScopedMemoryCharge pmr_bytes(limits.cancel);
      if (!pmr_bytes.Charge(pmr.NumNodes() * 32 + pmr.NumEdges() * 16)) {
        local.cancelled = true;
        local.truncated = true;
        break;
      }
      results = CollectPathBindings(pmr, limits, &local);
      break;
    }
    case PathMode::kSimple:
    case PathMode::kTrail: {
      PlainStep step(s, nfa);
      results = CollectProductPaths(step, u, v, mode, limits,
                                    /*exact_length=*/SIZE_MAX, &local);
      break;
    }
  }
  if (stats != nullptr) *stats = local;
  return results;
}

}  // namespace gqzoo
