#include "src/coregql/pattern_eval.h"

#include <algorithm>
#include <set>

namespace gqzoo {

namespace {

// Looks up ρ(µ(x), k); nullopt when x is unbound or the property undefined.
std::optional<Value> PropOf(const PropertyGraph& g, const CoreBinding& mu,
                            const std::string& var, const std::string& key) {
  auto it = mu.find(var);
  if (it == mu.end()) return std::nullopt;
  return g.GetProperty(it->second, key);
}

}  // namespace

bool EvalCoreCondition(const PropertyGraph& g, const CoreCondition& cond,
                       const CoreBinding& mu) {
  switch (cond.kind()) {
    case CoreCondition::Kind::kCompareProps: {
      std::optional<Value> lhs = PropOf(g, mu, cond.var1(), cond.key1());
      std::optional<Value> rhs = PropOf(g, mu, cond.var2(), cond.key2());
      if (!lhs.has_value() || !rhs.has_value()) return false;
      return Value::Compare(*lhs, cond.op(), *rhs);
    }
    case CoreCondition::Kind::kCompareConst: {
      std::optional<Value> lhs = PropOf(g, mu, cond.var1(), cond.key1());
      if (!lhs.has_value()) return false;
      return Value::Compare(*lhs, cond.op(), cond.constant());
    }
    case CoreCondition::Kind::kLabelIs: {
      auto it = mu.find(cond.var1());
      if (it == mu.end()) return false;
      std::optional<LabelId> label = g.FindLabel(cond.label());
      return label.has_value() && g.ObjectLabel(it->second) == *label;
    }
    case CoreCondition::Kind::kAnd:
      return EvalCoreCondition(g, *cond.left(), mu) &&
             EvalCoreCondition(g, *cond.right(), mu);
    case CoreCondition::Kind::kOr:
      return EvalCoreCondition(g, *cond.left(), mu) ||
             EvalCoreCondition(g, *cond.right(), mu);
    case CoreCondition::Kind::kNot:
      return !EvalCoreCondition(g, *cond.child(), mu);
  }
  return false;
}

namespace {

// Are µ1 and µ2 compatible (µ1 ~ µ2), and if so what is µ1 ⋈ µ2?
bool MergeBindings(const CoreBinding& a, const CoreBinding& b,
                   CoreBinding* out) {
  *out = a;
  for (const auto& [var, obj] : b) {
    auto [it, inserted] = out->try_emplace(var, obj);
    if (!inserted && it->second != obj) return false;
  }
  return true;
}

void SortUnique(std::vector<CorePairRow>* rows) {
  std::sort(rows->begin(), rows->end());
  rows->erase(std::unique(rows->begin(), rows->end()), rows->end());
}

// Endpoint pairs reachable by composing the pair relation `step` between
// lo and hi times (hi may be kUnbounded). j = 0 contributes the identity
// over all nodes ([[π]]^0 in Figure 4).
std::vector<std::pair<NodeId, NodeId>> ComposeSteps(
    const PropertyGraph& g, const std::set<std::pair<NodeId, NodeId>>& step,
    size_t lo, size_t hi, const CancellationToken* cancel) {
  const size_t n = g.NumNodes();
  std::vector<std::vector<NodeId>> adj(n);
  for (const auto& [u, v] : step) adj[u].push_back(v);

  std::set<std::pair<NodeId, NodeId>> result;
  for (NodeId u = 0; u < n; ++u) {
    if (ShouldStop(cancel)) break;
    // BFS layers from u; layer[j] = nodes reachable in exactly j steps.
    // Accumulate nodes whose step count can land in [lo, hi]. To decide
    // "exactly j" membership without exponential bookkeeping we track, for
    // every node, the set of step counts ≤ cutoff at which it is reachable;
    // counts beyond n² can be folded because reachability with ≥ n² steps
    // implies reachability with some count in [j, j + period] — instead we
    // simply iterate layers up to min(hi, lo + n²) and additionally, for
    // unbounded hi, saturate: once a node is seen at some count ≥ lo it is
    // in the answer.
    size_t cutoff = hi == CorePattern::kUnbounded
                        ? lo + n * n + 1
                        : std::min(hi, lo + n * n + 1);
    std::set<NodeId> current = {u};
    if (lo == 0) result.insert({u, u});
    for (size_t j = 1; j <= cutoff && !current.empty(); ++j) {
      std::set<NodeId> next;
      for (NodeId x : current) {
        for (NodeId y : adj[x]) next.insert(y);
      }
      if (j >= lo) {
        for (NodeId y : next) result.insert({u, y});
      }
      if (next == current && j >= lo) break;  // fixpoint layer
      current = std::move(next);
    }
  }
  return std::vector<std::pair<NodeId, NodeId>>(result.begin(), result.end());
}

Result<std::vector<CorePairRow>> EvalPairsRec(const PropertyGraph& g,
                                              const GraphSnapshot& snap,
                                              const CorePattern& p,
                                              const CancellationToken* cancel) {
  if (ShouldStop(cancel)) return std::vector<CorePairRow>{};
  switch (p.kind()) {
    case CorePattern::Kind::kNode:
    case CorePattern::Kind::kEdge: {
      std::vector<CorePairRow> rows;
      ForEachAtomMatch(g, snap, p, [&](ObjectRef o) {
        CoreBinding mu;
        if (p.var().has_value()) mu[*p.var()] = o;
        if (o.is_node()) {
          rows.push_back({o.id, o.id, std::move(mu)});
        } else {
          rows.push_back({g.Src(o.id), g.Tgt(o.id), std::move(mu)});
        }
      });
      return rows;
    }
    case CorePattern::Kind::kConcat: {
      Result<std::vector<CorePairRow>> lhs =
          EvalPairsRec(g, snap, *p.left(), cancel);
      if (!lhs.ok()) return lhs;
      Result<std::vector<CorePairRow>> rhs =
          EvalPairsRec(g, snap, *p.right(), cancel);
      if (!rhs.ok()) return rhs;
      // Index the right-hand rows by source node.
      std::vector<std::vector<const CorePairRow*>> by_src(g.NumNodes());
      for (const CorePairRow& r : rhs.value()) by_src[r.src].push_back(&r);
      std::vector<CorePairRow> rows;
      for (const CorePairRow& l : lhs.value()) {
        if (ShouldStop(cancel)) break;
        for (const CorePairRow* r : by_src[l.tgt]) {
          CoreBinding merged;
          if (!MergeBindings(l.mu, r->mu, &merged)) continue;
          if (!ChargeMemory(cancel, 48 + merged.size() * 48)) break;
          rows.push_back({l.src, r->tgt, std::move(merged)});
        }
      }
      SortUnique(&rows);
      return rows;
    }
    case CorePattern::Kind::kUnion: {
      Result<std::vector<CorePairRow>> lhs =
          EvalPairsRec(g, snap, *p.left(), cancel);
      if (!lhs.ok()) return lhs;
      Result<std::vector<CorePairRow>> rhs =
          EvalPairsRec(g, snap, *p.right(), cancel);
      if (!rhs.ok()) return rhs;
      std::vector<CorePairRow> rows = std::move(lhs).value();
      rows.insert(rows.end(), rhs.value().begin(), rhs.value().end());
      SortUnique(&rows);
      return rows;
    }
    case CorePattern::Kind::kRepeat: {
      Result<std::vector<CorePairRow>> inner =
          EvalPairsRec(g, snap, *p.child(), cancel);
      if (!inner.ok()) return inner;
      std::set<std::pair<NodeId, NodeId>> step;
      for (const CorePairRow& r : inner.value()) step.insert({r.src, r.tgt});
      std::vector<CorePairRow> rows;
      for (const auto& [u, v] : ComposeSteps(g, step, p.lo(), p.hi(), cancel)) {
        rows.push_back({u, v, {}});  // µ∅: repetition erases bindings
      }
      return rows;
    }
    case CorePattern::Kind::kCondition: {
      Result<std::vector<CorePairRow>> inner =
          EvalPairsRec(g, snap, *p.child(), cancel);
      if (!inner.ok()) return inner;
      std::vector<CorePairRow> rows;
      for (CorePairRow& r : inner.value()) {
        if (EvalCoreCondition(g, *p.cond(), r.mu)) {
          rows.push_back(std::move(r));
        }
      }
      return rows;
    }
  }
  return Error("unknown pattern kind");
}

void SortUniquePaths(std::vector<CorePathRow>* rows) {
  std::sort(rows->begin(), rows->end());
  rows->erase(std::unique(rows->begin(), rows->end()), rows->end());
}

struct PathEvalContext {
  const PropertyGraph& g;
  const CorePathEvalOptions& options;
  bool truncated = false;
};

Result<std::vector<CorePathRow>> EvalPathsRec(PathEvalContext* ctx,
                                              const CorePattern& p) {
  const PropertyGraph& g = ctx->g;
  if (ShouldStop(ctx->options.cancel)) {
    ctx->truncated = true;
    return std::vector<CorePathRow>{};
  }
  switch (p.kind()) {
    case CorePattern::Kind::kNode:
    case CorePattern::Kind::kEdge: {
      std::vector<CorePathRow> rows;
      ForEachAtomMatch(g, *ctx->options.snapshot, p, [&](ObjectRef o) {
        CoreBinding mu;
        if (p.var().has_value()) mu[*p.var()] = o;
        rows.push_back({AtomPath(g, o), std::move(mu)});
      });
      return rows;
    }
    case CorePattern::Kind::kConcat: {
      Result<std::vector<CorePathRow>> lhs = EvalPathsRec(ctx, *p.left());
      if (!lhs.ok()) return lhs;
      Result<std::vector<CorePathRow>> rhs = EvalPathsRec(ctx, *p.right());
      if (!rhs.ok()) return rhs;
      std::vector<std::vector<const CorePathRow*>> by_src(g.NumNodes());
      for (const CorePathRow& r : rhs.value()) {
        by_src[r.path.Src(g.skeleton())].push_back(&r);
      }
      std::vector<CorePathRow> rows;
      for (const CorePathRow& l : lhs.value()) {
        if (ShouldStop(ctx->options.cancel)) {
          ctx->truncated = true;
          break;
        }
        for (const CorePathRow* r : by_src[l.path.Tgt(g.skeleton())]) {
          if (l.path.Length() + r->path.Length() >
              ctx->options.max_path_length) {
            ctx->truncated = true;
            continue;
          }
          CoreBinding merged;
          if (!MergeBindings(l.mu, r->mu, &merged)) continue;
          Result<Path> joined = Path::Concat(g.skeleton(), l.path, r->path);
          if (!joined.ok()) continue;
          if (!ChargeMemory(ctx->options.cancel,
                            96 + joined.value().objects().size() *
                                     sizeof(ObjectRef))) {
            ctx->truncated = true;
            break;
          }
          rows.push_back({std::move(joined).value(), std::move(merged)});
          if (rows.size() > ctx->options.max_results) {
            ctx->truncated = true;
            SortUniquePaths(&rows);
            if (rows.size() > ctx->options.max_results) {
              rows.resize(ctx->options.max_results);
              return rows;
            }
          }
        }
      }
      SortUniquePaths(&rows);
      return rows;
    }
    case CorePattern::Kind::kUnion: {
      Result<std::vector<CorePathRow>> lhs = EvalPathsRec(ctx, *p.left());
      if (!lhs.ok()) return lhs;
      Result<std::vector<CorePathRow>> rhs = EvalPathsRec(ctx, *p.right());
      if (!rhs.ok()) return rhs;
      std::vector<CorePathRow> rows = std::move(lhs).value();
      rows.insert(rows.end(), rhs.value().begin(), rhs.value().end());
      SortUniquePaths(&rows);
      return rows;
    }
    case CorePattern::Kind::kRepeat: {
      Result<std::vector<CorePathRow>> inner = EvalPathsRec(ctx, *p.child());
      if (!inner.ok()) return inner;
      // Strip bindings: [[π]]^j has µ∅.
      std::vector<std::vector<const CorePathRow*>> by_src(g.NumNodes());
      for (const CorePathRow& r : inner.value()) {
        by_src[r.path.Src(g.skeleton())].push_back(&r);
      }
      std::set<Path> result_paths;
      // Layer j = 0: single-node paths over all nodes.
      std::set<Path> current;
      for (NodeId n = 0; n < g.NumNodes(); ++n) current.insert(Path::OfNode(n));
      if (p.lo() == 0) result_paths = current;
      for (size_t j = 1; j <= p.hi(); ++j) {
        std::set<Path> next;
        for (const Path& prefix : current) {
          if (ShouldStop(ctx->options.cancel)) {
            ctx->truncated = true;
            break;
          }
          for (const CorePathRow* r : by_src[prefix.Tgt(g.skeleton())]) {
            if (prefix.Length() + r->path.Length() >
                ctx->options.max_path_length) {
              ctx->truncated = true;
              continue;
            }
            Result<Path> joined =
                Path::Concat(g.skeleton(), prefix, r->path);
            if (!joined.ok()) continue;
            if (!ChargeMemory(ctx->options.cancel,
                              96 + joined.value().objects().size() *
                                       sizeof(ObjectRef))) {
              ctx->truncated = true;
              break;
            }
            next.insert(std::move(joined).value());
          }
        }
        if (j >= p.lo()) {
          result_paths.insert(next.begin(), next.end());
        }
        if (next.empty()) break;
        if (next == current) break;  // fixpoint (all-zero-length iteration)
        current = std::move(next);
        if (result_paths.size() > ctx->options.max_results) {
          ctx->truncated = true;
          break;
        }
      }
      std::vector<CorePathRow> rows;
      for (const Path& path : result_paths) rows.push_back({path, {}});
      return rows;
    }
    case CorePattern::Kind::kCondition: {
      Result<std::vector<CorePathRow>> inner = EvalPathsRec(ctx, *p.child());
      if (!inner.ok()) return inner;
      std::vector<CorePathRow> rows;
      for (CorePathRow& r : inner.value()) {
        if (EvalCoreCondition(g, *p.cond(), r.mu)) {
          rows.push_back(std::move(r));
        }
      }
      return rows;
    }
  }
  return Error("unknown pattern kind");
}

}  // namespace

Path AtomPath(const PropertyGraph& g, ObjectRef o) {
  if (o.is_node()) return Path::OfNode(o.id);
  return Path::MakeUnchecked(
      {ObjectRef::Node(g.Src(o.id)), o, ObjectRef::Node(g.Tgt(o.id))});
}

Result<std::vector<CorePairRow>> EvalPatternPairs(
    const PropertyGraph& g, const CorePattern& pattern,
    const GraphSnapshot& snapshot, const CancellationToken* cancel) {
  Result<bool> valid = pattern.Validate();
  if (!valid.ok()) return valid.error();
  Result<std::vector<CorePairRow>> rows =
      EvalPairsRec(g, snapshot, pattern, cancel);
  if (!rows.ok()) return rows;
  std::vector<CorePairRow> out = std::move(rows).value();
  // A partial result left by a trip is discarded by the caller; skip the
  // final ordering pass (same contract as the RPQ evaluator).
  if (!HasStopped(cancel)) SortUnique(&out);
  return out;
}

Result<CorePathEvalResult> EvalPatternPaths(const PropertyGraph& g,
                                            const CorePattern& pattern,
                                            const CorePathEvalOptions& options) {
  if (options.snapshot == nullptr) {
    return Error(ErrorCode::kInvalidArgument,
                 "CoreGQL path evaluation needs a graph snapshot");
  }
  Result<bool> valid = pattern.Validate();
  if (!valid.ok()) return valid.error();
  PathEvalContext ctx{g, options};
  Result<std::vector<CorePathRow>> rows = EvalPathsRec(&ctx, pattern);
  if (!rows.ok()) return rows.error();
  CorePathEvalResult result;
  result.rows = std::move(rows).value();
  // Skip the final ordering pass only when the *context tripped* (result
  // to be discarded) — a merely truncated enumeration is still returned
  // to the user and stays sorted.
  if (!HasStopped(options.cancel)) SortUniquePaths(&result.rows);
  result.truncated = ctx.truncated;
  return result;
}

}  // namespace gqzoo
