#ifndef GQZOO_COREGQL_GROUP_EVAL_H_
#define GQZOO_COREGQL_GROUP_EVAL_H_

#include <map>
#include <memory>

#include "src/coregql/pattern.h"
#include "src/coregql/pattern_eval.h"
#include "src/graph/path.h"
#include "src/util/result.h"

namespace gqzoo {

/// GQL's *group variable* semantics (Examples 1–2 of the paper): the same
/// syntax as CoreGQL patterns, but instead of erasing variables under
/// repetition (CoreGQL's first-normal-form discipline), a repetition turns
/// every inner variable into a group variable that collects one value per
/// iteration into a list — nested repetitions produce nested lists, the
/// "monsters" of Figure 1.
///
/// This module exists to make the paper's Examples 1 and 2 executable
/// exactly as GQL behaves, so the contrast with l-RPQ list variables
/// ([[R]]² = [[R·R]], no anomaly) is demonstrable. See group_eval tests.

/// A GQL value: a graph element, or a (possibly nested) list of values.
class GqlValue {
 public:
  GqlValue() = default;
  explicit GqlValue(ObjectRef element) : element_(element) {}
  explicit GqlValue(std::vector<GqlValue> list)
      : is_list_(true), list_(std::move(list)) {}

  bool is_element() const { return !is_list_; }
  bool is_list() const { return is_list_; }
  ObjectRef element() const { return element_; }
  const std::vector<GqlValue>& list() const { return list_; }

  bool operator==(const GqlValue& o) const {
    if (is_list_ != o.is_list_) return false;
    return is_list_ ? list_ == o.list_ : element_ == o.element_;
  }
  bool operator<(const GqlValue& o) const {
    if (is_list_ != o.is_list_) return is_list_ < o.is_list_;
    if (is_list_) return list_ < o.list_;
    return element_ < o.element_;
  }

  /// "a1" for elements, "list(a1, list(t1, t2))" for lists.
  std::string ToString(const EdgeLabeledGraph& g) const;

 private:
  bool is_list_ = false;
  ObjectRef element_{ObjectKind::kNode, 0};
  std::vector<GqlValue> list_;
};

using GqlBinding = std::map<std::string, GqlValue>;

struct GqlPathRow {
  Path path;
  GqlBinding mu;

  bool operator==(const GqlPathRow& o) const {
    return path == o.path && mu == o.mu;
  }
  bool operator<(const GqlPathRow& o) const {
    if (path != o.path) return path < o.path;
    return mu < o.mu;
  }
};

struct GqlEvalResult {
  std::vector<GqlPathRow> rows;
  bool truncated = false;
};

/// Evaluates `pattern` under group-variable semantics:
///  * atoms bind singleton elements;
///  * concatenation joins variables that are singletons on both sides
///    (same element required) and fails with an error if a variable is a
///    group on one side — GQL's "same variable in incompatible degrees"
///    restriction;
///  * π^{n..m} turns every variable of π into a group collecting one value
///    per iteration (lists may nest);
///  * conditions see singleton variables only (a θ over a group variable
///    is simply false, like an unbound variable).
///
/// Enumerative and bounded like EvalPatternPaths.
Result<GqlEvalResult> EvalGqlGroupPattern(
    const PropertyGraph& g, const CorePattern& pattern,
    const CorePathEvalOptions& options);

}  // namespace gqzoo

#endif  // GQZOO_COREGQL_GROUP_EVAL_H_
