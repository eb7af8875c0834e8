#include "src/crpq/modes.h"

#include <algorithm>

#include "src/pmr/build.h"

namespace gqzoo {

namespace {

// Backtracking search for simple paths / trails matching the NFA from u to
// v. State: (graph node, NFA state), plus the used-node or used-edge set.
// Each transition iterates exactly its label slice; the surviving subset
// under a `max_results` truncation follows that visit order. Path search
// requires one-way automata (like the PMR path), so transitions always
// step forward.
class RestrictedSearch {
 public:
  RestrictedSearch(const GraphSnapshot& s, const Nfa& nfa, NodeId target,
                   PathMode mode, const EnumerationLimits& limits,
                   std::vector<PathBinding>* out)
      : g_(s.graph()),
        snapshot_(s),
        nfa_(nfa),
        target_(target),
        mode_(mode),
        limits_(limits),
        out_(out),
        used_nodes_(s.NumNodes(), false),
        used_edges_(s.NumEdges(), false) {}

  EnumerationStats Run(NodeId start) {
    current_.path = Path::OfNode(start);
    used_nodes_[start] = true;
    Dfs(start, nfa_.initial(), 0);
    return stats_;
  }

 private:
  void Dfs(NodeId node, uint32_t state, size_t depth) {
    if (stopped_) return;
    if (ShouldStop(limits_.cancel)) {
      stats_.cancelled = true;
      stats_.truncated = true;
      stopped_ = true;
      return;
    }
    if (node == target_ && nfa_.accepting(state)) {
      if (!ChargeRows(limits_.cancel) ||
          !ChargeMemory(limits_.cancel, ApproxBytes(current_))) {
        stats_.cancelled = true;
        stats_.truncated = true;
        stopped_ = true;
        return;
      }
      out_->push_back(current_);
      ++stats_.emitted;
      if (stats_.emitted >= limits_.max_results) {
        stats_.truncated = true;
        stopped_ = true;
        return;
      }
    }
    if (depth >= limits_.max_length) {
      stats_.truncated = true;
      return;
    }
    for (const Nfa::Transition& t : nfa_.Out(state)) {
      snapshot_.ForEachMatch(node, t.pred, /*inverse=*/false,
                             [&](const GraphSnapshot::Hop& hop) {
                               if (stopped_) return;
                               Step(hop.edge, hop.node, t, depth);
                             });
      if (stopped_) return;
    }
  }

  // Tries one (edge, transition) extension: mode checks, extend, recurse,
  // backtrack.
  void Step(EdgeId e, NodeId next, const Nfa::Transition& t, size_t depth) {
    if (mode_ == PathMode::kTrail && used_edges_[e]) return;
    if (mode_ == PathMode::kSimple && used_nodes_[next]) return;
    // Extend.
    used_edges_[e] = true;
    used_nodes_[next] = true;
    current_.path.AppendObject(g_, ObjectRef::Edge(e));
    current_.path.AppendObject(g_, ObjectRef::Node(next));
    const bool captured = t.capture != Nfa::kNoCapture;
    if (captured) {
      current_.mu.Append(nfa_.capture_names()[t.capture], ObjectRef::Edge(e));
    }
    Dfs(next, t.to, depth + 1);
    // Backtrack.
    if (captured) {
      const std::string& var = nfa_.capture_names()[t.capture];
      ObjectList& list = current_.mu.lists[var];
      list.pop_back();
      if (list.empty()) current_.mu.lists.erase(var);
    }
    std::vector<ObjectRef> objs = current_.path.objects();
    objs.resize(objs.size() - 2);
    current_.path = Path::MakeUnchecked(std::move(objs));
    used_edges_[e] = false;
    if (mode_ == PathMode::kSimple) used_nodes_[next] = false;
  }

  const EdgeLabeledGraph& g_;
  const GraphSnapshot& snapshot_;
  const Nfa& nfa_;
  NodeId target_;
  PathMode mode_;
  const EnumerationLimits& limits_;
  std::vector<PathBinding>* out_;
  std::vector<bool> used_nodes_;
  std::vector<bool> used_edges_;
  PathBinding current_;
  EnumerationStats stats_;
  bool stopped_ = false;
};

}  // namespace

std::vector<PathBinding> CollectModePaths(const GraphSnapshot& s,
                                          const Nfa& nfa, NodeId u, NodeId v,
                                          PathMode mode,
                                          const EnumerationLimits& limits,
                                          EnumerationStats* stats) {
  std::vector<PathBinding> results;
  EnumerationStats local;
  switch (mode) {
    case PathMode::kAll: {
      Pmr pmr = BuildPmrBetween(s, nfa, u, v, limits.cancel);
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
    case PathMode::kShortest: {
      Pmr pmr = BuildPmrBetween(s, nfa, u, v, limits.cancel)
                    .ShortestRestriction();
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
      RestrictedSearch search(s, nfa, v, mode, limits, &results);
      local = search.Run(u);
      // Skip ordering cancelled (partial, to-be-discarded) results so
      // deadlines stay prompt.
      if (!local.cancelled) {
        std::sort(results.begin(), results.end());
        results.erase(std::unique(results.begin(), results.end()),
                      results.end());
      }
      break;
    }
  }
  if (stats != nullptr) *stats = local;
  return results;
}

}  // namespace gqzoo
