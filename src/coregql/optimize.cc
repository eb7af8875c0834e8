#include "src/coregql/optimize.h"

#include <algorithm>

namespace gqzoo {

namespace {

// Splits a condition into its top-level AND conjuncts.
void SplitConjuncts(const CoreCondPtr& cond, std::vector<CoreCondPtr>* out) {
  if (cond == nullptr) return;
  if (cond->kind() == CoreCondition::Kind::kAnd) {
    SplitConjuncts(cond->left(), out);
    SplitConjuncts(cond->right(), out);
    return;
  }
  out->push_back(cond);
}

// ANDs conjuncts[from, to) as a balanced tree, in order: the result is
// only log2(to - from) levels deeper than its deepest conjunct.
CoreCondPtr FoldConjuncts(const std::vector<CoreCondPtr>& conjuncts,
                          size_t from, size_t to) {
  if (from == to) return nullptr;
  if (to - from == 1) return conjuncts[from];
  const size_t mid = from + (to - from + 1) / 2;
  return CoreCondition::And(FoldConjuncts(conjuncts, from, mid),
                            FoldConjuncts(conjuncts, mid, to));
}

// Collects the labels carried by non-repeated atoms binding `var`.
void CollectAtomLabels(const CorePattern& p, const std::string& var,
                       bool under_repeat, size_t* bound_count,
                       std::vector<std::string>* labels) {
  switch (p.kind()) {
    case CorePattern::Kind::kNode:
    case CorePattern::Kind::kEdge:
      if (!under_repeat && p.var() == std::optional<std::string>(var)) {
        ++*bound_count;
        if (p.label().has_value()) labels->push_back(*p.label());
      }
      return;
    case CorePattern::Kind::kConcat:
    case CorePattern::Kind::kUnion:
      CollectAtomLabels(*p.left(), var, under_repeat, bound_count, labels);
      CollectAtomLabels(*p.right(), var, under_repeat, bound_count, labels);
      return;
    case CorePattern::Kind::kRepeat:
      CollectAtomLabels(*p.child(), var, true, bound_count, labels);
      return;
    case CorePattern::Kind::kCondition:
      CollectAtomLabels(*p.child(), var, under_repeat, bound_count, labels);
      return;
  }
}

// Rebuilds the pattern with `label` installed on every unlabeled
// non-repeated atom binding `var`.
CorePatternPtr InstallLabel(const CorePatternPtr& p, const std::string& var,
                            const std::string& label, bool under_repeat) {
  switch (p->kind()) {
    case CorePattern::Kind::kNode:
    case CorePattern::Kind::kEdge: {
      if (under_repeat || p->var() != std::optional<std::string>(var) ||
          p->label().has_value()) {
        return p;
      }
      return p->kind() == CorePattern::Kind::kNode
                 ? CorePattern::Node(p->var(), label)
                 : CorePattern::Edge(p->var(), label);
    }
    case CorePattern::Kind::kConcat:
      return CorePattern::Concat(
          InstallLabel(p->left(), var, label, under_repeat),
          InstallLabel(p->right(), var, label, under_repeat));
    case CorePattern::Kind::kUnion:
      return CorePattern::Union(
          InstallLabel(p->left(), var, label, under_repeat),
          InstallLabel(p->right(), var, label, under_repeat));
    case CorePattern::Kind::kRepeat:
      return p;  // repeated occurrences are semantically fresh variables
    case CorePattern::Kind::kCondition:
      return CorePattern::Where(
          InstallLabel(p->child(), var, label, under_repeat), p->cond());
  }
  return p;
}

bool BindsFreeVariable(const CorePattern& p, const std::string& var) {
  std::vector<std::string> fv = p.FreeVariables();
  return std::find(fv.begin(), fv.end(), var) != fv.end();
}

}  // namespace

CoreGqlQuery PushDownConditions(const CoreGqlQuery& query,
                                PushdownStats* stats) {
  PushdownStats local;
  CoreGqlQuery out = query;
  for (CoreMatchBlock& block : out.blocks) {
    std::vector<CoreCondPtr> conjuncts;
    SplitConjuncts(block.where, &conjuncts);
    std::vector<CoreCondPtr> kept;
    // Per pattern entry, the selections pushed into it.
    std::vector<std::vector<CoreCondPtr>> pushed(block.patterns.size());
    for (const CoreCondPtr& conjunct : conjuncts) {
      if (conjunct->kind() == CoreCondition::Kind::kLabelIs) {
        const std::string& var = conjunct->var1();
        const std::string& label = conjunct->label();
        size_t bound = 0;
        std::vector<std::string> labels;
        for (const CoreMatchBlock::PatternEntry& entry : block.patterns) {
          CollectAtomLabels(*entry.pattern, var, false, &bound, &labels);
        }
        bool conflicting =
            std::any_of(labels.begin(), labels.end(),
                        [&label](const std::string& l) { return l != label; });
        if (bound == 0 || conflicting) {
          kept.push_back(conjunct);  // unbound or contradictory: keep as-is
          continue;
        }
        for (CoreMatchBlock::PatternEntry& entry : block.patterns) {
          entry.pattern = InstallLabel(entry.pattern, var, label, false);
        }
        ++local.labels_pushed;
        continue;
      }
      if (conjunct->kind() == CoreCondition::Kind::kCompareConst) {
        auto binder = std::find_if(
            block.patterns.begin(), block.patterns.end(),
            [&](const CoreMatchBlock::PatternEntry& entry) {
              return BindsFreeVariable(*entry.pattern, conjunct->var1());
            });
        if (binder != block.patterns.end()) {
          pushed[binder - block.patterns.begin()].push_back(conjunct);
          ++local.selections_pushed;
          continue;
        }
      }
      kept.push_back(conjunct);
    }
    for (size_t i = 0; i < pushed.size(); ++i) {
      if (pushed[i].empty()) continue;
      block.patterns[i].pattern =
          CorePattern::Where(block.patterns[i].pattern,
                             FoldConjuncts(pushed[i], 0, pushed[i].size()));
    }
    block.where = FoldConjuncts(kept, 0, kept.size());
  }
  if (stats != nullptr) *stats = local;
  return out;
}

}  // namespace gqzoo
