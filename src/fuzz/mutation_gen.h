#ifndef GQZOO_FUZZ_MUTATION_GEN_H_
#define GQZOO_FUZZ_MUTATION_GEN_H_

#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "src/fuzz/fuzz_case.h"
#include "src/fuzz/oracle.h"
#include "src/fuzz/rng.h"
#include "src/graph/delta/delta.h"
#include "src/graph/graph.h"
#include "src/util/result.h"

namespace gqzoo {
namespace fuzz {

struct MutationGenOptions {
  size_t min_ops = 2;
  size_t max_ops = 10;
  /// Percent of ops deliberately invalid (unknown subject, duplicate name);
  /// the oracle checks the overlay rejects them with the same code the
  /// reference simulator does, and that they leave no state behind.
  uint64_t invalid_percent = 12;
  /// Percent of labels drawn fresh (outside the graph's alphabet) instead
  /// of from it — exercises plan-cache misses when the vocabulary grows.
  uint64_t fresh_label_percent = 20;
};

/// Reference simulator for the mutation semantics: a deliberately naive
/// reimplementation of the `DeltaOverlay` validity rules on flat vectors,
/// sharing no code with the overlay or the merger. `Build()` constructs the
/// post-mutation graph from scratch in merge-compatible order (surviving
/// base elements first, additions in application order, property names
/// interned base-first) — so if the overlay, the splice-merger, and the
/// compactor are correct, `PropertyGraphToText` of their views is
/// byte-identical to the simulator's rebuild. Any difference is a bug in
/// exactly one of the two implementations.
class GraphSim {
 public:
  explicit GraphSim(const PropertyGraph& base);

  /// Mirrors `DeltaOverlay::ApplyOne`'s validity rules and error codes
  /// (messages are not compared). State changes only on success.
  Result<bool> Apply(const MutationOp& op);

  /// From-scratch rebuild of the current state as a plain graph.
  PropertyGraph Build() const;

  // Generator introspection.
  std::vector<std::string> AliveNodeNames() const;
  std::vector<std::string> AliveEdgeNames() const;
  size_t num_alive_nodes() const { return alive_nodes_; }
  size_t num_alive_edges() const { return alive_edges_; }
  bool ResolvableNode(const std::string& name) const;
  bool ResolvableEdge(const std::string& name) const;

 private:
  struct SimNode {
    std::string name;
    std::string label;
    bool alive = true;
  };
  struct SimEdge {
    std::string name;
    size_t src = 0, tgt = 0;  // indices into nodes_
    std::string label;
    bool alive = true;
  };

  std::optional<size_t> ResolveNodeIdx(const std::string& name) const;
  std::optional<size_t> ResolveEdgeIdx(const std::string& name) const;
  void InternProperty(const std::string& name);

  const PropertyGraph* base_;
  size_t base_nodes_ = 0, base_edges_ = 0;
  std::vector<SimNode> nodes_;  // base records first, additions appended
  std::vector<SimEdge> edges_;
  size_t alive_nodes_ = 0, alive_edges_ = 0;
  /// Latest claimant of each name (additions shadow dead base holders).
  std::unordered_map<std::string, size_t> node_by_name_;
  std::unordered_map<std::string, size_t> edge_by_name_;
  /// Property overrides keyed (is_edge, record index, property name); an
  /// ordered map so Build() is deterministic independent of hash order.
  std::map<std::tuple<bool, size_t, std::string>, Value> overrides_;
  /// Properties not in the base universe, in first-set order (the overlay's
  /// intern order — property *ids* decide rendering order inside `{ }`).
  std::vector<std::string> new_props_;
};

/// Generates a random mutation sequence valid-by-construction against a
/// simulator of `base` (modulo `invalid_percent` deliberately broken ops).
/// Node/edge adds use fresh `w<k>` / `t<k>` names that cannot collide with
/// generator or disjoint-union names.
std::vector<MutationOp> GenMutations(FuzzRng* rng, const PropertyGraph& base,
                                     const std::vector<std::string>& labels,
                                     const MutationGenOptions& options);

/// The delta-vs-rebuild differential oracle. Applies the case's mutation
/// ops one batch each to a `DeltaOverlay` and to a `GraphSim` in lockstep
/// and checks:
///
///   mutation.op-status         overlay and simulator accept/reject each op
///                              with the same error code;
///   mutation.delta-vs-rebuild  the merged overlay view renders
///                              byte-identical to the simulator's
///                              from-scratch rebuild;
///   mutation.compact-vs-merged the compactor's output (log replay against
///                              the base) renders byte-identical to the
///                              merged view — compaction changes nothing a
///                              query can see;
///   mutation.query-on-merged   the case's query evaluates to the same
///                              canonical result over the merged view and
///                              over the rebuilt graph (same error code if
///                              both fail);
///   mutation.monotonic-growth  when every applied op was an addition, the
///                              pre-mutation RPQ answer set is a subset of
///                              the post-mutation one (the edge-addition
///                              monotonicity property, lifted from the
///                              metamorphic suite to the write path);
///   mutation.cached-vs-cold    with `options.engine`: the query runs on
///                              the engine, the ops go through
///                              `ApplyMutation` (a `CompactNow` midway),
///                              and the re-run must hit the plan cache
///                              unless the writes interned a new label or
///                              property name, and must answer
///                              byte-identically to a cold compile on the
///                              rebuilt graph (a fresh epoch).
///
/// Never throws — divergences are appended to `report`.
void RunMutationOracle(const FuzzCase& c, const OracleOptions& options,
                       OracleReport* report);

}  // namespace fuzz
}  // namespace gqzoo

#endif  // GQZOO_FUZZ_MUTATION_GEN_H_
