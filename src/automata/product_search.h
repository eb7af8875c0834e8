#ifndef GQZOO_AUTOMATA_PRODUCT_SEARCH_H_
#define GQZOO_AUTOMATA_PRODUCT_SEARCH_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/automata/nfa.h"
#include "src/graph/csr.h"
#include "src/graph/path_binding.h"
#include "src/util/cancellation.h"
#include "src/util/failpoint.h"
#include "src/util/interner.h"

namespace gqzoo {

/// The one search over the product of a graph and an automaton (Sections
/// 6.2-6.4). Every RPQ flavour is answered here: plain RPQs over
/// (node, state), and dl-RPQs over (object, state, valuation), the latter
/// only adding a valuation to each product state (Section 3.2.1). The
/// product is never materialized; a *step* type expands it lazily.
///
/// A step type supplies
///  * `State` (copyable, `==`) and its `StateHash`;
///  * `kUnitCost`: true when every arc out of a state appends an edge;
///  * `Start(u, f)`, calling `f(arc)` for each first step of a path from
///    u, and `Expand(state, f)`, calling it for each arc out of a state;
///  * `Accepting(state)`, and `Endpoint(state)`, the path's tgt so far;
///  * `NumNodes()`, `NumEdges()` and `capture_names()`.
/// Arcs are reported in the step's visit order; the searches below keep
/// that order, so a truncated enumeration keeps the same prefix.
///
/// Two loops run every search, and only they probe the deadline, pass the
/// fail points and charge the search's own state to the context:
///  * `ProductBfs`, a 0/1 BFS (an arc that appends an edge costs 1, any
///    other arc 0), for reachability, shortest length and PMR building;
///  * `ProductDfs`, a backtracking DFS for mode-restricted enumeration.
/// A caller charges what it keeps (result rows, PMR nodes).

/// Room a search's layers and visited slots start with, so a small search
/// does not grow them one doubling at a time (without it, the one-pair
/// searches of bench_rpq_product ran up to 45% slower).
inline constexpr size_t kInitialStates = 16;

/// One arc of the product: the state it reaches and what it appends to
/// the path (an edge, a node, both in that order, or nothing when it
/// re-matches the last object) and to the list variables.
template <typename State>
struct ProductArc {
  State to{};
  EdgeId edge = kInvalidId;
  NodeId node = kInvalidId;
  uint32_t capture = Nfa::kNoCapture;  // index into capture_names()
  ObjectRef captured{};                // object appended to that variable

  uint32_t cost() const { return edge == kInvalidId ? 0 : 1; }
};

/// The plain step: (node, NFA state) packed as `v * |Q| + q` in 64 bits,
/// since |V|·|Q| exceeds 2^32 on exactly the families the paper's
/// complexity claims use, and a 32-bit pack would alias distinct states.
/// A state expands by `nfa.Out(q)` × `GraphSnapshot::ForEachMatch`, so
/// each transition iterates only its label slice (backwards when the
/// transition is inverse).
class PlainStep {
 public:
  using State = uint64_t;
  using StateHash = std::hash<uint64_t>;
  static constexpr bool kUnitCost = true;

  /// Transition-major visits each transition's slice in turn; edge-major
  /// sorts a state's arcs by edge id, transition order on ties (the PMR's
  /// arc order, which fixes its enumeration order).
  enum class Order { kTransitionMajor, kEdgeMajor };

  PlainStep(const GraphSnapshot& s, const Nfa& nfa,
            Order order = Order::kTransitionMajor)
      : s_(s), nfa_(nfa), num_states_(nfa.num_states()), order_(order) {}

  State Pack(NodeId v, uint32_t q) const {
    return static_cast<uint64_t>(v) * num_states_ + q;
  }
  /// States are dense ids below this bound (see DenseVisited).
  uint64_t NumStates() const {
    return static_cast<uint64_t>(s_.NumNodes()) * num_states_;
  }
  size_t NumNodes() const { return s_.NumNodes(); }
  size_t NumEdges() const { return s_.NumEdges(); }
  bool Accepting(State st) const {
    return nfa_.accepting(static_cast<uint32_t>(st % num_states_));
  }
  NodeId Endpoint(State st) const {
    return static_cast<NodeId>(st / num_states_);
  }
  const std::vector<std::string>& capture_names() const {
    return nfa_.capture_names();
  }

  template <typename F>
  void Start(NodeId u, F&& f) const {
    ProductArc<State> arc;
    arc.to = Pack(u, nfa_.initial());
    arc.node = u;
    f(arc);
  }

  template <typename F>
  void Expand(State st, F&& f) {
    const NodeId v = Endpoint(st);
    const std::vector<Nfa::Transition>& out =
        nfa_.Out(static_cast<uint32_t>(st % num_states_));
    if (order_ == Order::kTransitionMajor) {
      for (const Nfa::Transition& t : out) {
        s_.ForEachMatch(v, t.pred, t.inverse,
                        [&](const GraphSnapshot::Hop& hop) {
                          f(ArcOf(t, hop));
                        });
      }
      return;
    }
    // Not re-entrant: only the BFS, which expands one state at a time,
    // asks for edge-major order.
    sorted_.clear();
    for (uint32_t i = 0; i < out.size(); ++i) {
      s_.ForEachMatch(v, out[i].pred, out[i].inverse,
                      [&](const GraphSnapshot::Hop& hop) {
                        sorted_.emplace_back(hop, i);
                      });
    }
    std::sort(sorted_.begin(), sorted_.end(),
              [](const auto& a, const auto& b) {
                return a.first.edge != b.first.edge
                           ? a.first.edge < b.first.edge
                           : a.second < b.second;
              });
    for (const auto& [hop, i] : sorted_) f(ArcOf(out[i], hop));
  }

 private:
  ProductArc<State> ArcOf(const Nfa::Transition& t,
                          const GraphSnapshot::Hop& hop) const {
    ProductArc<State> arc;
    arc.to = Pack(hop.node, t.to);
    arc.edge = hop.edge;
    arc.node = hop.node;
    arc.capture = t.capture;
    arc.captured = ObjectRef::Edge(hop.edge);
    return arc;
  }

  const GraphSnapshot& s_;
  const Nfa& nfa_;
  uint32_t num_states_;
  Order order_;
  std::vector<std::pair<GraphSnapshot::Hop, uint32_t>> sorted_;
};

/// BFS visited set over a unit-cost step with dense states: one bit per
/// product state, marked when the state is first queued, which in a
/// unit-cost BFS is already its distance. The |V|·|Q|-bit bitmap is
/// allocated whole by `Allocate()`, which the BFS calls only once it has
/// charged `Bytes()`, so a bitmap over budget is refused unallocated.
template <typename Step>
class DenseVisited {
  static_assert(Step::kUnitCost, "a dense visited set needs unit costs");

 public:
  using State = typename Step::State;
  using Ref = State;

  explicit DenseVisited(const Step& step) : num_states_(step.NumStates()) {}

  void Allocate() { seen_ = std::vector<bool>(num_states_, false); }

  bool Reach(State s, uint32_t /*dist*/, Ref* ref) {
    *ref = s;
    if (seen_[s]) return false;
    seen_[s] = true;
    return true;
  }
  bool Stale(Ref, uint32_t) const { return false; }
  State StateOf(Ref ref) const { return ref; }
  uint64_t Bytes() const { return num_states_ / 8; }

 private:
  uint64_t num_states_;
  std::vector<bool> seen_;
};

/// BFS visited set that grows with the states reached: each state gets a
/// slot in discovery order and keeps its best distance, so a 0-cost arc
/// can still improve a state queued at d + 1.
template <typename Step>
class SparseVisited {
 public:
  using State = typename Step::State;
  using Ref = uint32_t;

  void Allocate() { slots_.reserve(kInitialStates); }  // then grows

  bool Reach(const State& s, uint32_t dist, Ref* ref) {
    auto [it, inserted] =
        slot_of_.try_emplace(s, static_cast<Ref>(slots_.size()));
    *ref = it->second;
    if (inserted) {
      slots_.push_back({s, dist});
      return true;
    }
    // A unit-cost BFS first reaches each state at its distance.
    if (Step::kUnitCost || slots_[*ref].dist <= dist) return false;
    slots_[*ref].dist = dist;
    return true;
  }
  bool Stale(Ref ref, uint32_t dist) const { return slots_[ref].dist != dist; }
  const State& StateOf(Ref ref) const { return slots_[ref].state; }

  /// Reached states, in discovery order.
  size_t size() const { return slots_.size(); }
  const Ref* Find(const State& s) const {
    auto it = slot_of_.find(s);
    return it == slot_of_.end() ? nullptr : &it->second;
  }

  /// The map's nodes (entry, next pointer, cached hash) and buckets, and
  /// the slot array's capacity.
  uint64_t Bytes() const {
    return slot_of_.size() *
               (sizeof(typename Map::value_type) + 2 * sizeof(void*)) +
           slot_of_.bucket_count() * sizeof(void*) +
           slots_.capacity() * sizeof(Slot);
  }

 private:
  using Map = std::unordered_map<State, Ref, typename Step::StateHash>;
  struct Slot {
    State state;
    uint32_t dist;
  };
  Map slot_of_;
  std::vector<Slot> slots_;
};

/// An `on_arc` callback for searches that need only the settled states.
struct NoArcs {
  template <typename... Args>
  void operator()(Args&&...) const {}
};

/// The BFS loop: a 0/1 BFS by layers from every `sources` node, in order.
/// A 0-cost arc joins the end of the current layer and a 1-cost arc the
/// next, so states settle in nondecreasing distance, and in plain FIFO
/// order for a unit-cost step. Calls `on_settle(state, dist)` once per
/// settled state (stop by returning false), and `on_arc(from, to, arc)`,
/// if given, for every arc followed, with `from` null for a start and `to`
/// the target's visited ref whether or not it was new.
///
/// `visited` must be fresh. Its size is charged before it allocates, and
/// its and the layers' allocated sizes as they grow; on a trip the search
/// stops and the caller reads the stop cause from the context. The
/// `"rpq.product.bfs"` fail point trips the memory budget before the
/// search starts.
template <typename Step, typename Visited, typename OnSettle,
          typename OnArc = NoArcs>
void ProductBfs(Step& step, Visited& visited, std::span<const NodeId> sources,
                const CancellationToken* cancel, OnSettle&& on_settle,
                OnArc&& on_arc = {}) {
  using Ref = typename Visited::Ref;
  if (cancel != nullptr && Failpoint::ShouldFail("rpq.product.bfs")) {
    cancel->Trip(StopCause::kMemoryBudget);
    return;
  }
  ScopedMemoryCharge bytes(cancel);
  uint64_t charged = 0;
  std::vector<Ref> layer, next;  // layer[head..] is still to settle
  size_t head = 0;
  uint32_t dist = 0;
  auto charge_growth = [&] {
    if (cancel == nullptr) return true;
    const uint64_t now =
        visited.Bytes() + (layer.capacity() + next.capacity()) * sizeof(Ref);
    if (now <= charged) return true;
    const uint64_t delta = now - charged;
    charged = now;
    return bytes.Charge(delta);
  };
  auto follow = [&](const Ref* from, const auto& arc) {
    Ref to{};
    if (visited.Reach(arc.to, dist + arc.cost(), &to)) {
      (arc.cost() == 0 ? layer : next).push_back(to);
    }
    on_arc(from, to, arc);
  };
  if (!charge_growth()) return;
  visited.Allocate();
  layer.reserve(kInitialStates);
  next.reserve(kInitialStates);
  for (NodeId u : sources) {
    step.Start(u, [&](const auto& arc) { follow(nullptr, arc); });
  }
  if (!charge_growth()) return;
  for (;;) {
    if (head == layer.size()) {
      if (next.empty()) return;
      layer.swap(next);
      next.clear();
      head = 0;
      ++dist;
    }
    if (ShouldStop(cancel)) return;
    const Ref ref = layer[head++];
    if (visited.Stale(ref, dist)) continue;
    const typename Step::State state = visited.StateOf(ref);
    if (!on_settle(state, dist)) return;
    step.Expand(state, [&](const auto& arc) { follow(&ref, arc); });
    if (!charge_growth()) return;
  }
}

/// Reachability from `u` over a dense-state step: calls `visit(v)` once
/// per node `v` at which an accepting state settles, in settle order;
/// stops when it returns false. Dedupes the nodes with a |V|-bit bitmap,
/// small next to the |V|·|Q|-bit visited set.
template <typename Step, typename Visit>
void ForEachReached(Step& step, NodeId u, const CancellationToken* cancel,
                    Visit&& visit) {
  ScopedMemoryCharge reported_bytes(cancel);
  if (!reported_bytes.Charge(step.NumNodes() / 8)) return;
  std::vector<bool> reported(step.NumNodes(), false);
  DenseVisited<Step> visited(step);
  ProductBfs(
      step, visited, std::span<const NodeId>(&u, 1), cancel,
      [&](const typename Step::State& s, uint32_t) {
        if (!step.Accepting(s)) return true;
        const NodeId v = step.Endpoint(s);
        if (reported[v]) return true;
        reported[v] = true;
        return visit(v);
      });
}

/// The DFS loop: backtracking enumeration of the paths from `u` to the
/// target whose product run ends in an accepting state, with µ. `mode`
/// kTrail forbids a repeated edge and kSimple a repeated node (a path's
/// first node counts only when the path starts with it); kAll and
/// kShortest forbid nothing. With `exact_length` set only paths of that
/// length are kept, and the length cap does not count as truncation.
///
/// The path and µ are extended in place and popped on backtrack. Each
/// visited state probes the context and passes the `"datatest.recurse"`
/// fail point (a step-budget trip); each emitted binding is charged as a
/// row and its bytes.
template <typename Step>
class ProductDfs {
 public:
  using State = typename Step::State;
  using Arc = ProductArc<State>;

  ProductDfs(Step& step, NodeId target, PathMode mode,
             const EnumerationLimits& limits, size_t exact_length,
             std::vector<PathBinding>* out)
      : step_(step),
        target_(target),
        mode_(mode),
        limits_(limits),
        exact_length_(exact_length),
        max_length_(std::min(limits.max_length, exact_length)),
        out_(out) {
    if (mode == PathMode::kTrail) used_edges_.assign(step.NumEdges(), false);
    if (mode == PathMode::kSimple) used_nodes_.assign(step.NumNodes(), false);
  }

  EnumerationStats Run(NodeId u) {
    step_.Start(u, [&](const Arc& arc) {
      if (!stopped_) Follow(arc, 0);
    });
    return stats_;
  }

 private:
  void Visit(const State& s, size_t length) {
    if (limits_.cancel != nullptr &&
        Failpoint::ShouldFail("datatest.recurse")) {
      limits_.cancel->Trip(StopCause::kStepBudget);
    }
    if (ShouldStop(limits_.cancel)) return Cancel();
    if (step_.Accepting(s) && step_.Endpoint(s) == target_ &&
        (exact_length_ == SIZE_MAX || length == exact_length_)) {
      PathBinding binding{Path::MakeUnchecked(path_), mu_};
      if (!ChargeRows(limits_.cancel) ||
          !ChargeMemory(limits_.cancel, ApproxBytes(binding))) {
        return Cancel();
      }
      out_->push_back(std::move(binding));
      if (++stats_.emitted >= limits_.max_results) {
        stats_.truncated = true;
        stopped_ = true;
        return;
      }
    }
    // Every arc of a unit-cost step leaves the cap: report it reached
    // without probing the state's arcs.
    if constexpr (Step::kUnitCost) {
      if (length >= max_length_) return Capped();
    }
    step_.Expand(s, [&](const Arc& arc) {
      if (!stopped_) Follow(arc, length);
    });
  }

  void Follow(const Arc& arc, size_t length) {
    const size_t next = length + arc.cost();
    if (next > max_length_) return Capped();
    if (mode_ == PathMode::kTrail && arc.edge != kInvalidId &&
        used_edges_[arc.edge]) {
      return;
    }
    if (mode_ == PathMode::kSimple && arc.node != kInvalidId &&
        used_nodes_[arc.node]) {
      return;
    }
    if constexpr (!Step::kUnitCost) {
      // Only 0-cost arcs return to a state at the same length. Such a
      // cycle repeats the same (p, µ), unless captures fire on collapse
      // steps (`([a^z])*` pumps one edge into µ(z) forever): then the set
      // is infinite, and it is truncated here.
      if (!on_stack_.insert({arc.to, next}).second) {
        if (!step_.capture_names().empty()) stats_.truncated = true;
        return;
      }
    }
    Push(arc);
    Visit(arc.to, next);
    Pop(arc);
    if constexpr (!Step::kUnitCost) on_stack_.erase({arc.to, next});
  }

  void Push(const Arc& arc) {
    if (arc.edge != kInvalidId) {
      path_.push_back(ObjectRef::Edge(arc.edge));
      if (mode_ == PathMode::kTrail) used_edges_[arc.edge] = true;
    }
    if (arc.node != kInvalidId) {
      path_.push_back(ObjectRef::Node(arc.node));
      if (mode_ == PathMode::kSimple) used_nodes_[arc.node] = true;
    }
    if (arc.capture != Nfa::kNoCapture) {
      mu_.Append(step_.capture_names()[arc.capture], arc.captured);
    }
  }

  void Pop(const Arc& arc) {
    if (arc.capture != Nfa::kNoCapture) {
      const std::string& var = step_.capture_names()[arc.capture];
      ObjectList& list = mu_.lists[var];
      list.pop_back();
      if (list.empty()) mu_.lists.erase(var);
    }
    if (arc.node != kInvalidId) {
      path_.pop_back();
      if (mode_ == PathMode::kSimple) used_nodes_[arc.node] = false;
    }
    if (arc.edge != kInvalidId) {
      path_.pop_back();
      if (mode_ == PathMode::kTrail) used_edges_[arc.edge] = false;
    }
  }

  void Capped() {
    if (exact_length_ == SIZE_MAX) stats_.truncated = true;
  }

  void Cancel() {
    stats_.cancelled = true;
    stats_.truncated = true;
    stopped_ = true;
  }

  struct StackEntry {
    State state;
    size_t length;
    bool operator==(const StackEntry&) const = default;
  };
  struct StackEntryHash {
    size_t operator()(const StackEntry& e) const {
      return HashCombine(typename Step::StateHash()(e.state), e.length);
    }
  };

  Step& step_;
  NodeId target_;
  PathMode mode_;
  const EnumerationLimits& limits_;
  size_t exact_length_;
  size_t max_length_;
  std::vector<PathBinding>* out_;
  std::vector<bool> used_nodes_;
  std::vector<bool> used_edges_;
  std::vector<ObjectRef> path_;
  Binding mu_;
  std::unordered_set<StackEntry, StackEntryHash> on_stack_;
  EnumerationStats stats_;
  bool stopped_ = false;
};

/// Runs the DFS and returns its bindings sorted and deduplicated (set
/// semantics). A cancelled, partial result is returned unsorted: the
/// caller is about to discard it, and unwinding promptly is the contract.
template <typename Step>
std::vector<PathBinding> CollectProductPaths(Step& step, NodeId u, NodeId v,
                                             PathMode mode,
                                             const EnumerationLimits& limits,
                                             size_t exact_length,
                                             EnumerationStats* stats) {
  std::vector<PathBinding> results;
  EnumerationStats local =
      ProductDfs<Step>(step, v, mode, limits, exact_length, &results).Run(u);
  if (!local.cancelled) {
    std::sort(results.begin(), results.end());
    results.erase(std::unique(results.begin(), results.end()), results.end());
  }
  if (stats != nullptr) *stats = local;
  return results;
}

}  // namespace gqzoo

#endif  // GQZOO_AUTOMATA_PRODUCT_SEARCH_H_
