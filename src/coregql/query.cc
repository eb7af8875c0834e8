#include "src/coregql/query.h"

#include <set>

#include "src/coregql/algebra.h"

namespace gqzoo {

namespace {

// Extracts the element bindings of a row (attr → element) for condition
// evaluation; path- and value-typed cells are not addressable by θ.
CoreBinding RowBinding(const CoreRelation& rel,
                       const std::vector<CoreCell>& row) {
  CoreBinding mu;
  for (size_t i = 0; i < rel.schema().size(); ++i) {
    if (std::holds_alternative<ObjectRef>(row[i])) {
      mu[rel.schema()[i]] = std::get<ObjectRef>(row[i]);
    }
  }
  return mu;
}

Result<CoreRelation> EvalPatternEntry(const PropertyGraph& g,
                                      const CoreMatchBlock::PatternEntry& entry,
                                      const CoreQueryEvalOptions& options,
                                      bool* truncated) {
  std::vector<std::string> fv = entry.pattern->FreeVariables();
  if (!entry.path_var.has_value()) {
    Result<std::vector<CorePairRow>> rows =
        EvalPatternPairs(g, *entry.pattern, *options.path_options.snapshot,
                         options.path_options.cancel);
    if (!rows.ok()) return rows.error();
    CoreRelation rel(fv);
    for (const CorePairRow& row : rows.value()) {
      std::vector<CoreCell> cells;
      cells.reserve(fv.size());
      bool complete = true;
      for (const std::string& x : fv) {
        auto it = row.mu.find(x);
        if (it == row.mu.end()) {
          complete = false;  // cannot happen for validated patterns
          break;
        }
        cells.push_back(it->second);
      }
      if (complete) rel.AddRow(std::move(cells));
    }
    rel.Normalize(options.path_options.cancel);
    return rel;
  }
  // Path-binding entry: enumerative evaluation.
  Result<CorePathEvalResult> paths =
      EvalPatternPaths(g, *entry.pattern, options.path_options);
  if (!paths.ok()) return paths.error();
  if (paths.value().truncated) *truncated = true;
  std::vector<std::string> schema = {*entry.path_var};
  schema.insert(schema.end(), fv.begin(), fv.end());
  CoreRelation rel(std::move(schema));
  for (const CorePathRow& row : paths.value().rows) {
    std::vector<CoreCell> cells;
    cells.reserve(fv.size() + 1);
    cells.push_back(row.path);
    bool complete = true;
    for (const std::string& x : fv) {
      auto it = row.mu.find(x);
      if (it == row.mu.end()) {
        complete = false;
        break;
      }
      cells.push_back(it->second);
    }
    if (complete) rel.AddRow(std::move(cells));
  }
  rel.Normalize(options.path_options.cancel);
  return rel;
}

// The wcoj group of a block as a CoreRelation: one node-ref column per
// core variable, rows already sorted and duplicate-free (WcojEval emits
// them in elimination-order lexicographic order). Shares the crpq path's
// "crpq.wcoj.alloc" fail point.
CoreRelation WcojBlockRelation(const GraphSnapshot& snap,
                               const rel::WcojSpec& spec,
                               const QueryContext* ctx) {
  CoreRelation out(spec.vars);
  uint64_t tuple_bytes = spec.vars.size() * sizeof(CoreCell) + 32;
  std::vector<std::vector<NodeId>> rows =
      rel::WcojEval(snap, spec, tuple_bytes, ctx, "crpq.wcoj.alloc");
  for (const std::vector<NodeId>& row : rows) {
    std::vector<CoreCell> cells;
    cells.reserve(row.size());
    for (NodeId v : row) cells.emplace_back(ObjectRef::Node(v));
    out.AddRow(std::move(cells));
  }
  return out;
}

Result<CoreRelation> EvalBlock(const PropertyGraph& g,
                               const CoreMatchBlock& block,
                               const std::vector<size_t>* order,
                               const rel::WcojSpec* wcoj,
                               const CoreQueryEvalOptions& options,
                               bool* truncated) {
  if (block.patterns.empty()) return Error("MATCH block has no patterns");
  const QueryContext* ctx = options.path_options.cancel;
  std::vector<bool> in_core(block.patterns.size(), false);
  if (wcoj != nullptr) {
    for (size_t i : wcoj->conjuncts) {
      if (i < block.patterns.size()) in_core[i] = true;
    }
  }
  // All entries are evaluated in textual order first, so which error
  // surfaces never depends on the planner's join order (or on the wcoj
  // replacing some of them).
  std::vector<CoreRelation> entry_rels;
  entry_rels.reserve(block.patterns.size());
  for (const CoreMatchBlock::PatternEntry& entry : block.patterns) {
    Result<CoreRelation> rel = EvalPatternEntry(g, entry, options, truncated);
    if (!rel.ok()) return rel;
    entry_rels.push_back(std::move(rel).value());
  }
  bool use_order = order != nullptr && order->size() == block.patterns.size();
  CoreRelation joined;
  bool first = true;
  if (wcoj != nullptr) {
    joined = WcojBlockRelation(*options.path_options.snapshot, *wcoj, ctx);
    first = false;
  }
  for (size_t step = 0; step < entry_rels.size(); ++step) {
    size_t idx = use_order ? (*order)[step] : step;
    if (wcoj != nullptr && in_core[idx]) continue;  // served by the wcoj
    if (first) {
      joined = std::move(entry_rels[idx]);
      first = false;
    } else {
      joined = NaturalJoinRel(joined, entry_rels[idx], ctx, options.use_batch);
    }
  }
  if (block.where != nullptr) {
    joined = Select(
        joined,
        [&](const std::vector<CoreCell>& row) {
          return EvalCoreCondition(g, *block.where, RowBinding(joined, row));
        },
        ctx);
  }
  // RETURN: the Ω projection of Section 4.1.2.
  std::vector<std::string> out_schema;
  for (const CoreReturnItem& item : block.returns) {
    out_schema.push_back(item.Name());
  }
  CoreRelation out(std::move(out_schema));
  for (const auto& row : joined.rows()) {
    std::vector<CoreCell> cells;
    bool compatible = true;
    for (const CoreReturnItem& item : block.returns) {
      size_t i = joined.AttrIndex(item.var);
      if (i == SIZE_MAX) {
        return Error("RETURN references unknown variable '" + item.var + "'");
      }
      if (item.kind == CoreReturnItem::Kind::kVar) {
        cells.push_back(row[i]);
        continue;
      }
      // item.kind == kProp: µ must be compatible with Ω — ρ(µ(x), k) must
      // be defined, otherwise the row is dropped (no nulls).
      if (!std::holds_alternative<ObjectRef>(row[i])) {
        return Error("property access on non-element variable '" + item.var +
                     "'");
      }
      std::optional<Value> v =
          g.GetProperty(std::get<ObjectRef>(row[i]), item.key);
      if (!v.has_value()) {
        compatible = false;
        break;
      }
      cells.push_back(std::move(*v));
    }
    if (compatible) out.AddRow(std::move(cells));
  }
  out.Normalize(ctx);
  return out;
}

}  // namespace

Result<CoreQueryResult> EvalCoreGqlQuery(const PropertyGraph& g,
                                         const CoreGqlQuery& query,
                                         const CoreQueryEvalOptions& options) {
  if (options.path_options.snapshot == nullptr) {
    return Error(ErrorCode::kInvalidArgument,
                 "CoreGQL evaluation needs a graph snapshot");
  }
  if (query.blocks.empty()) return Error("query has no blocks");
  if (query.ops.size() + 1 != query.blocks.size()) {
    return Error("malformed query: block/operator count mismatch");
  }
  CoreQueryResult result;
  auto block_order = [&](size_t i) -> const std::vector<size_t>* {
    if (options.block_orders == nullptr ||
        i >= options.block_orders->size()) {
      return nullptr;
    }
    return &(*options.block_orders)[i];
  };
  auto block_wcoj = [&](size_t i) -> const rel::WcojSpec* {
    if (options.block_wcoj == nullptr || i >= options.block_wcoj->size() ||
        !(*options.block_wcoj)[i].has_value()) {
      return nullptr;
    }
    return &*(*options.block_wcoj)[i];
  };
  Result<CoreRelation> acc =
      EvalBlock(g, query.blocks[0], block_order(0), block_wcoj(0), options,
                &result.truncated);
  if (!acc.ok()) return acc.error();
  CoreRelation current = std::move(acc).value();
  for (size_t i = 0; i < query.ops.size(); ++i) {
    Result<CoreRelation> next = EvalBlock(g, query.blocks[i + 1],
                                          block_order(i + 1),
                                          block_wcoj(i + 1), options,
                                          &result.truncated);
    if (!next.ok()) return next.error();
    Result<CoreRelation> combined = [&]() {
      switch (query.ops[i]) {
        case CoreSetOp::kUnion:
          return UnionRel(current, next.value());
        case CoreSetOp::kExcept:
          return DifferenceRel(current, next.value());
        case CoreSetOp::kIntersect:
          return IntersectRel(current, next.value());
      }
      return Result<CoreRelation>(Error("unknown set operation"));
    }();
    if (!combined.ok()) return combined.error();
    current = std::move(combined).value();
  }
  result.relation = std::move(current);
  return result;
}

Result<CoreQueryResult> RunCoreGql(const PropertyGraph& g,
                                   const std::string& text,
                                   const CoreQueryEvalOptions& options) {
  Result<CoreGqlQuery> query = ParseCoreGqlQuery(text);
  if (!query.ok()) return query.error();
  return EvalCoreGqlQuery(g, query.value(), options);
}

}  // namespace gqzoo
