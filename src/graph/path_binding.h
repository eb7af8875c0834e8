#ifndef GQZOO_GRAPH_PATH_BINDING_H_
#define GQZOO_GRAPH_PATH_BINDING_H_

#include <cstdint>
#include <map>
#include <string>

#include "src/graph/path.h"
#include "src/util/cancellation.h"

namespace gqzoo {

/// Path modes of Section 3.1.5 (and GQL/SQL-PGQ).
enum class PathMode { kAll, kShortest, kSimple, kTrail };

/// A binding µ mapping list variables to lists of graph objects
/// (Section 3.1.4). Only variables with non-empty lists are stored; absent
/// variables implicitly map to `list()`, matching the paper's convention
/// that µ is total but almost-everywhere empty.
struct Binding {
  std::map<std::string, ObjectList> lists;

  /// µ(z); `list()` when absent.
  const ObjectList& Get(const std::string& var) const {
    static const ObjectList kEmpty;
    auto it = lists.find(var);
    return it == lists.end() ? kEmpty : it->second;
  }

  /// Appends `o` to µ(var).
  void Append(const std::string& var, ObjectRef o) {
    lists[var].push_back(o);
  }

  /// µ1 · µ2: concatenates all lists pointwise.
  static Binding Concat(const Binding& a, const Binding& b) {
    Binding out = a;
    for (const auto& [var, list] : b.lists) {
      ObjectList& dst = out.lists[var];
      dst.insert(dst.end(), list.begin(), list.end());
    }
    return out;
  }

  bool operator==(const Binding& o) const { return lists == o.lists; }
  bool operator<(const Binding& o) const { return lists < o.lists; }

  std::string ToString(const EdgeLabeledGraph& g) const {
    std::string out = "{";
    bool first = true;
    for (const auto& [var, list] : lists) {
      if (!first) out += ", ";
      first = false;
      out += var + " -> " + ListToString(g, list);
    }
    return out + "}";
  }
};

/// A path binding (p, µ): the semantic objects of l-RPQs and dl-RPQs.
struct PathBinding {
  Path path;
  Binding mu;

  bool operator==(const PathBinding& o) const {
    return path == o.path && mu == o.mu;
  }
  bool operator<(const PathBinding& o) const {
    if (path != o.path) return path < o.path;
    return mu < o.mu;
  }
};

/// Approximate resident footprint of a path binding, for the query
/// engine's budget accounting (QueryContext::ChargeMemory). Dominant terms
/// only: the object sequence plus per-variable list storage and overhead.
inline uint64_t ApproxBytes(const PathBinding& pb) {
  uint64_t bytes = 64 + pb.path.objects().size() * sizeof(ObjectRef);
  for (const auto& [var, list] : pb.mu.lists) {
    bytes += 48 + var.size() + list.size() * sizeof(ObjectRef);
  }
  return bytes;
}

/// Bounds for enumerating a (possibly infinite) set of path bindings: the
/// PMR enumerators (pmr/enumerate.h) and the product-search DFS
/// (automata/product_search.h).
struct EnumerationLimits {
  /// Stop after this many results.
  size_t max_results = SIZE_MAX;
  /// Skip (and stop extending) walks longer than this many edges.
  size_t max_length = SIZE_MAX;
  /// Optional cooperative governance (deadline, cancel, resource budgets);
  /// enumeration stops — and reports `cancelled` — as soon as the context
  /// trips. Emitted bindings are charged against the row and memory
  /// budgets; the ordered enumerator also charges its frontier. Not owned.
  const CancellationToken* cancel = nullptr;
};

/// Outcome of an enumeration: whether the limits cut it short.
struct EnumerationStats {
  size_t emitted = 0;
  bool truncated = false;
  /// The cancellation token tripped mid-enumeration; results are partial.
  bool cancelled = false;
};

}  // namespace gqzoo

#endif  // GQZOO_GRAPH_PATH_BINDING_H_
