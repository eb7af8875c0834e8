#include "src/coregql/group_eval.h"

#include <algorithm>
#include <set>

#include "src/util/failpoint.h"

namespace gqzoo {

std::string GqlValue::ToString(const EdgeLabeledGraph& g) const {
  if (is_element()) return std::string(g.ObjectName(element_));
  std::string out = "list(";
  for (size_t i = 0; i < list_.size(); ++i) {
    if (i > 0) out += ", ";
    out += list_[i].ToString(g);
  }
  return out + ")";
}

namespace {

struct EvalContext {
  const PropertyGraph& g;
  const CorePathEvalOptions& options;
  bool truncated = false;
};

void SortUnique(std::vector<GqlPathRow>* rows) {
  std::sort(rows->begin(), rows->end());
  rows->erase(std::unique(rows->begin(), rows->end()), rows->end());
}

// Join two bindings: shared singletons must agree; a singleton/group or
// group/group collision is a degree error (GQL's restriction).
enum class MergeOutcome { kOk, kMismatch, kDegreeError };

MergeOutcome MergeGql(const GqlBinding& a, const GqlBinding& b,
                      GqlBinding* out) {
  *out = a;
  for (const auto& [var, value] : b) {
    auto [it, inserted] = out->try_emplace(var, value);
    if (inserted) continue;
    if (it->second.is_list() || value.is_list()) {
      return MergeOutcome::kDegreeError;
    }
    if (!(it->second == value)) return MergeOutcome::kMismatch;
  }
  return MergeOutcome::kOk;
}

// Projects the singleton part of a GQL binding for condition evaluation.
CoreBinding SingletonPart(const GqlBinding& mu) {
  CoreBinding out;
  for (const auto& [var, value] : mu) {
    if (value.is_element()) out[var] = value.element();
  }
  return out;
}

Result<std::vector<GqlPathRow>> Eval(EvalContext* ctx, const CorePattern& p);

Result<std::vector<GqlPathRow>> EvalRepeat(EvalContext* ctx,
                                           const CorePattern& p) {
  Result<std::vector<GqlPathRow>> inner = Eval(ctx, *p.child());
  if (!inner.ok()) return inner;
  const PropertyGraph& g = ctx->g;
  const std::vector<std::string> vars = p.child()->AllVariables();

  std::vector<std::vector<const GqlPathRow*>> by_src(g.NumNodes());
  for (const GqlPathRow& r : inner.value()) {
    by_src[r.path.Src(g.skeleton())].push_back(&r);
  }

  // A partial composition: the concatenated path plus, per variable, the
  // list of per-iteration values collected so far.
  struct Partial {
    Path path;
    std::map<std::string, std::vector<GqlValue>> groups;

    bool operator<(const Partial& o) const {
      if (!(path == o.path)) return path < o.path;
      return groups < o.groups;
    }
    bool operator==(const Partial& o) const {
      return path == o.path && groups == o.groups;
    }
  };

  auto to_row = [&vars](const Partial& partial) {
    GqlPathRow row;
    row.path = partial.path;
    for (const std::string& v : vars) {
      auto it = partial.groups.find(v);
      row.mu[v] = GqlValue(it == partial.groups.end()
                               ? std::vector<GqlValue>{}
                               : it->second);
    }
    return row;
  };

  // The frontier of partial compositions is this evaluator's blow-up term
  // (the 6-clique bag-semantics query grows it past any machine): account
  // it per inserted Partial, releasing each round's frontier when the next
  // one replaces it.
  const QueryContext* gov = ctx->options.cancel;
  auto partial_bytes = [](const Partial& partial) {
    uint64_t bytes = 96 + partial.path.objects().size() * sizeof(ObjectRef);
    for (const auto& [var, values] : partial.groups) {
      bytes += 48 + var.size() + values.size() * 24;
    }
    return bytes;
  };
  ScopedMemoryCharge frontier_bytes(gov);
  uint64_t current_bytes = 0;
  bool cancelled = false;

  std::set<Partial> current;
  for (NodeId n = 0; n < g.NumNodes(); ++n) {
    Partial start{Path::OfNode(n), {}};
    const uint64_t bytes = partial_bytes(start);
    if (!frontier_bytes.Charge(bytes)) {
      ctx->truncated = true;
      cancelled = true;
      break;
    }
    current_bytes += bytes;
    current.insert(std::move(start));
  }
  std::vector<GqlPathRow> result;
  auto emit = [&](const Partial& partial) {
    if (!ChargeRows(gov) || !ChargeMemory(gov, partial_bytes(partial))) {
      ctx->truncated = true;
      cancelled = true;
      return false;
    }
    result.push_back(to_row(partial));
    return true;
  };
  if (p.lo() == 0 && !cancelled) {
    for (const Partial& partial : current) {
      if (!emit(partial)) break;
    }
  }
  for (size_t j = 1; j <= p.hi() && !cancelled; ++j) {
    if (gov != nullptr && Failpoint::ShouldFail("coregql.frontier")) {
      gov->Trip(StopCause::kMemoryBudget);
    }
    std::set<Partial> next;
    uint64_t next_bytes = 0;
    for (const Partial& prefix : current) {
      // One round over a large frontier can take seconds; probe inside it,
      // not just per round.
      if (ShouldStop(gov)) {
        ctx->truncated = true;
        cancelled = true;
        break;
      }
      for (const GqlPathRow* r : by_src[prefix.path.Tgt(g.skeleton())]) {
        if (prefix.path.Length() + r->path.Length() >
            ctx->options.max_path_length) {
          ctx->truncated = true;
          continue;
        }
        Result<Path> joined =
            Path::Concat(g.skeleton(), prefix.path, r->path);
        if (!joined.ok()) continue;
        Partial extended;
        extended.path = std::move(joined).value();
        extended.groups = prefix.groups;
        for (const std::string& v : vars) {
          auto it = r->mu.find(v);
          if (it != r->mu.end()) extended.groups[v].push_back(it->second);
        }
        auto [pos, inserted] = next.insert(std::move(extended));
        if (inserted) {
          const uint64_t bytes = partial_bytes(*pos);
          if (!frontier_bytes.Charge(bytes)) {
            ctx->truncated = true;
            cancelled = true;
            break;
          }
          next_bytes += bytes;
        }
      }
      if (cancelled) break;
    }
    if (cancelled) break;
    if (j >= p.lo()) {
      for (const Partial& partial : next) {
        if (!emit(partial)) break;
      }
      if (cancelled) break;
    }
    if (next.empty() || next == current) break;
    current = std::move(next);
    frontier_bytes.Release(current_bytes);
    current_bytes = next_bytes;
    if (result.size() > ctx->options.max_results) {
      ctx->truncated = true;
      break;
    }
  }
  // A cancelled evaluation is partial and gets discarded by deadline-aware
  // callers; don't burn post-deadline time ordering it.
  if (!cancelled) SortUnique(&result);
  return result;
}

Result<std::vector<GqlPathRow>> Eval(EvalContext* ctx, const CorePattern& p) {
  if (ShouldStop(ctx->options.cancel)) {
    ctx->truncated = true;
    return std::vector<GqlPathRow>{};
  }
  const PropertyGraph& g = ctx->g;
  switch (p.kind()) {
    case CorePattern::Kind::kNode:
    case CorePattern::Kind::kEdge: {
      std::vector<GqlPathRow> rows;
      ForEachAtomMatch(g, *ctx->options.snapshot, p, [&](ObjectRef o) {
        GqlPathRow row;
        row.path = AtomPath(g, o);
        if (p.var().has_value()) row.mu[*p.var()] = GqlValue(o);
        rows.push_back(std::move(row));
      });
      return rows;
    }
    case CorePattern::Kind::kConcat: {
      Result<std::vector<GqlPathRow>> lhs = Eval(ctx, *p.left());
      if (!lhs.ok()) return lhs;
      Result<std::vector<GqlPathRow>> rhs = Eval(ctx, *p.right());
      if (!rhs.ok()) return rhs;
      std::vector<std::vector<const GqlPathRow*>> by_src(g.NumNodes());
      for (const GqlPathRow& r : rhs.value()) {
        by_src[r.path.Src(g.skeleton())].push_back(&r);
      }
      std::vector<GqlPathRow> rows;
      for (const GqlPathRow& l : lhs.value()) {
        for (const GqlPathRow* r : by_src[l.path.Tgt(g.skeleton())]) {
          if (l.path.Length() + r->path.Length() >
              ctx->options.max_path_length) {
            ctx->truncated = true;
            continue;
          }
          GqlBinding merged;
          MergeOutcome outcome = MergeGql(l.mu, r->mu, &merged);
          if (outcome == MergeOutcome::kDegreeError) {
            return Error(
                "variable bound as both a singleton and a group across a "
                "concatenation (GQL degree restriction)");
          }
          if (outcome == MergeOutcome::kMismatch) continue;
          Result<Path> joined = Path::Concat(g.skeleton(), l.path, r->path);
          if (!joined.ok()) continue;
          const uint64_t row_bytes =
              96 + joined.value().objects().size() * sizeof(ObjectRef);
          if (!ChargeMemory(ctx->options.cancel, row_bytes)) {
            // Context tripped; result is partial and will be discarded.
            ctx->truncated = true;
            return rows;
          }
          rows.push_back({std::move(joined).value(), std::move(merged)});
        }
      }
      SortUnique(&rows);
      return rows;
    }
    case CorePattern::Kind::kUnion: {
      Result<std::vector<GqlPathRow>> lhs = Eval(ctx, *p.left());
      if (!lhs.ok()) return lhs;
      Result<std::vector<GqlPathRow>> rhs = Eval(ctx, *p.right());
      if (!rhs.ok()) return rhs;
      std::vector<GqlPathRow> rows = std::move(lhs).value();
      rows.insert(rows.end(), rhs.value().begin(), rhs.value().end());
      SortUnique(&rows);
      return rows;
    }
    case CorePattern::Kind::kRepeat:
      return EvalRepeat(ctx, p);
    case CorePattern::Kind::kCondition: {
      Result<std::vector<GqlPathRow>> inner = Eval(ctx, *p.child());
      if (!inner.ok()) return inner;
      std::vector<GqlPathRow> rows;
      for (GqlPathRow& r : inner.value()) {
        if (EvalCoreCondition(g, *p.cond(), SingletonPart(r.mu))) {
          rows.push_back(std::move(r));
        }
      }
      return rows;
    }
  }
  return Error("unknown pattern kind");
}

}  // namespace

Result<GqlEvalResult> EvalGqlGroupPattern(const PropertyGraph& g,
                                          const CorePattern& pattern,
                                          const CorePathEvalOptions& options) {
  if (options.snapshot == nullptr) {
    return Error(ErrorCode::kInvalidArgument,
                 "GQL group-pattern evaluation needs a graph snapshot");
  }
  EvalContext ctx{g, options};
  Result<std::vector<GqlPathRow>> rows = Eval(&ctx, pattern);
  if (!rows.ok()) return rows.error();
  GqlEvalResult result;
  result.rows = std::move(rows).value();
  result.truncated = ctx.truncated;
  return result;
}

}  // namespace gqzoo
