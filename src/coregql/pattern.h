#ifndef GQZOO_COREGQL_PATTERN_H_
#define GQZOO_COREGQL_PATTERN_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/util/result.h"
#include "src/util/value.h"

namespace gqzoo {

class CoreCondition;
using CoreCondPtr = std::shared_ptr<const CoreCondition>;

/// A CoreGQL condition θ (Section 4.1.1):
///
///     θ := x.k = x'.k' | x.k < x'.k' | ℓ(x) | θ ∨ θ | θ ∧ θ | ¬θ
///
/// extended with the other comparison operators and comparisons against
/// constants (expressible but convenient).
class CoreCondition {
 public:
  enum class Kind : uint8_t {
    kCompareProps,  // x.k op y.k'
    kCompareConst,  // x.k op c
    kLabelIs,       // ℓ(x)
    kAnd,
    kOr,
    kNot,
  };

  static CoreCondPtr CompareProps(std::string x, std::string k, CompareOp op,
                                  std::string y, std::string k2);
  static CoreCondPtr CompareConst(std::string x, std::string k, CompareOp op,
                                  Value c);
  static CoreCondPtr LabelIs(std::string x, std::string label);
  static CoreCondPtr And(CoreCondPtr a, CoreCondPtr b);
  static CoreCondPtr Or(CoreCondPtr a, CoreCondPtr b);
  static CoreCondPtr Not(CoreCondPtr a);

  Kind kind() const { return kind_; }
  const std::string& var1() const { return var1_; }
  const std::string& key1() const { return key1_; }
  const std::string& var2() const { return var2_; }
  const std::string& key2() const { return key2_; }
  CompareOp op() const { return op_; }
  const Value& constant() const { return constant_; }
  const std::string& label() const { return label_; }
  const CoreCondPtr& left() const { return children_[0]; }
  const CoreCondPtr& right() const { return children_[1]; }
  const CoreCondPtr& child() const { return children_[0]; }

  /// Height of the condition tree: 1 for a comparison or label test.
  /// Every recursive pass over the condition, destruction included, nests
  /// this deep.
  size_t depth() const { return depth_; }

  std::string ToString() const;

 protected:
  CoreCondition() = default;

 private:
  Kind kind_ = Kind::kAnd;
  std::string var1_, key1_, var2_, key2_;
  CompareOp op_ = CompareOp::kEq;
  Value constant_;
  std::string label_;
  std::vector<CoreCondPtr> children_;
  size_t depth_ = 1;
};

class CorePattern;
using CorePatternPtr = std::shared_ptr<const CorePattern>;

/// A CoreGQL pattern π (Section 4.1.1):
///
///     π := (x) | →x | π1 π2 | π1 + π2 | π^{n..m} | π⟨θ⟩
///
/// Node and edge atoms additionally carry an optional label constraint
/// (the `(x:Account)` sugar; for anonymous atoms the constraint cannot be
/// expressed as a condition, so it is part of the atom).
class CorePattern {
 public:
  static constexpr size_t kUnbounded = SIZE_MAX;

  enum class Kind : uint8_t {
    kNode,
    kEdge,
    kConcat,
    kUnion,
    kRepeat,
    kCondition,
  };

  static CorePatternPtr Node(std::optional<std::string> var,
                             std::optional<std::string> label = std::nullopt);
  static CorePatternPtr Edge(std::optional<std::string> var,
                             std::optional<std::string> label = std::nullopt);
  static CorePatternPtr Concat(CorePatternPtr a, CorePatternPtr b);
  static CorePatternPtr Union(CorePatternPtr a, CorePatternPtr b);
  static CorePatternPtr Repeat(CorePatternPtr inner, size_t lo, size_t hi);
  static CorePatternPtr Where(CorePatternPtr inner, CoreCondPtr cond);

  Kind kind() const { return kind_; }
  const std::optional<std::string>& var() const { return var_; }
  const std::optional<std::string>& label() const { return label_; }
  size_t lo() const { return lo_; }
  size_t hi() const { return hi_; }
  const CoreCondPtr& cond() const { return cond_; }
  const CorePatternPtr& left() const { return children_[0]; }
  const CorePatternPtr& right() const { return children_[1]; }
  const CorePatternPtr& child() const { return children_[0]; }

  /// Height of the pattern tree, counting the condition of a `WHERE` node
  /// as a subtree: 1 for an atom. Every recursive pass over the pattern,
  /// destruction included, nests this deep.
  size_t depth() const { return depth_; }

  /// Free variables per Section 4.1.1: repetition erases them, the arms of
  /// a disjunction must agree (checked by Validate).
  std::vector<std::string> FreeVariables() const;

  /// All variables occurring anywhere (including under repetitions).
  std::vector<std::string> AllVariables() const;

  /// Checks the FV(π1) = FV(π2) side condition on every disjunction.
  Result<bool> Validate() const;

  std::string ToString() const;

 protected:
  CorePattern() = default;

 private:
  Kind kind_ = Kind::kNode;
  std::optional<std::string> var_;
  std::optional<std::string> label_;
  size_t lo_ = 0, hi_ = 0;
  CoreCondPtr cond_;
  std::vector<CorePatternPtr> children_;
  size_t depth_ = 1;
};

}  // namespace gqzoo

#endif  // GQZOO_COREGQL_PATTERN_H_
