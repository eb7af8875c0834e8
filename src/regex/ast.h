#ifndef GQZOO_REGEX_AST_H_
#define GQZOO_REGEX_AST_H_

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/util/value.h"

namespace gqzoo {

/// An element test of Section 3.2.1:
///
///     ETest := x := pname | pname op c | pname op x
///
/// where `x` ranges over data variables, `pname` over property names and
/// `c` over constant values.
struct ElementTest {
  enum class Kind {
    kAssign,        // x := pname
    kCompareConst,  // pname op c
    kCompareVar,    // pname op x
  };

  Kind kind;
  std::string property;       // pname
  std::string data_var;       // x (kAssign, kCompareVar)
  CompareOp op = CompareOp::kEq;  // kCompareConst, kCompareVar
  Value constant;             // c (kCompareConst)

  std::string ToString() const;
};

/// An atomic step of a regular expression.
///
/// The three regex classes of the paper share this representation:
///  * RPQs (3.1.1): edge atoms with a label constraint (`target` = kEdge,
///    no capture, no test); wildcards `!S` and `_` per Remark 11.
///  * l-RPQs (3.1.4): additionally a capture variable `z` (`a^z`).
///  * dl-RPQs (3.2.1): atoms carry an explicit node/edge target — `(a)`
///    vs `[a]` — and may be element tests `(et)` / `[et]` instead of label
///    constraints.
struct Atom {
  enum class Target : uint8_t { kEdge, kNode };

  /// The label constraint.
  enum class LabelKind : uint8_t {
    kOne,     // a single label
    kNegSet,  // !{a1, ..., an}: anything not in the set (Remark 11)
    kAny,     // "_": any label
    kTest,    // no label constraint; `test` holds an element test
  };

  Target target = Target::kEdge;
  LabelKind label_kind = LabelKind::kOne;
  /// Two-way navigation (Remark 9): an inverse atom `~a` traverses an
  /// a-labeled edge backwards. Supported by the pair-level RPQ evaluator
  /// (2RPQs); path-producing layers require one-way atoms.
  bool inverse = false;
  std::vector<std::string> labels;        // size 1 for kOne, n for kNegSet
  std::optional<std::string> capture;     // list variable z, if any
  std::optional<ElementTest> test;        // set iff label_kind == kTest

  bool is_test() const { return label_kind == LabelKind::kTest; }

  static Atom Label(const std::string& label) {
    Atom a;
    a.labels = {label};
    return a;
  }
  static Atom LabelCapture(const std::string& label, const std::string& var) {
    Atom a = Label(label);
    a.capture = var;
    return a;
  }
  static Atom Any() {
    Atom a;
    a.label_kind = LabelKind::kAny;
    return a;
  }
  static Atom NegSet(std::vector<std::string> labels) {
    Atom a;
    a.label_kind = LabelKind::kNegSet;
    a.labels = std::move(labels);
    return a;
  }
  static Atom Test(ElementTest test) {
    Atom a;
    a.label_kind = LabelKind::kTest;
    a.test = std::move(test);
    return a;
  }

  Atom WithTarget(Target t) const {
    Atom a = *this;
    a.target = t;
    return a;
  }

  Atom Inverted() const {
    Atom a = *this;
    a.inverse = true;
    return a;
  }

  std::string ToString() const;
};

class Regex;
using RegexPtr = std::shared_ptr<const Regex>;

/// A regular expression AST over `Atom`s.
///
/// `R? = R + ε` and `R+ = R·R*` are kept as explicit operators (they
/// matter for Glushkov position bookkeeping and for printing); bounded
/// repetition `R{n,m}` is desugared by the parser.
class Regex {
 public:
  enum class Op : uint8_t {
    kEpsilon,
    kAtom,
    kConcat,
    kUnion,
    kStar,
    kPlus,
    kOptional,
  };

  static RegexPtr Epsilon();
  static RegexPtr MakeAtom(Atom atom);
  static RegexPtr Concat(RegexPtr lhs, RegexPtr rhs);
  static RegexPtr Union(RegexPtr lhs, RegexPtr rhs);
  static RegexPtr Star(RegexPtr inner);
  static RegexPtr Plus(RegexPtr inner);
  static RegexPtr Optional(RegexPtr inner);

  /// `R{lo, hi}` desugared into concatenations/optionals/stars.
  /// `hi == kUnbounded` means `R{lo,}`.
  static constexpr size_t kUnbounded = SIZE_MAX;
  static RegexPtr Repeat(RegexPtr inner, size_t lo, size_t hi);

  Op op() const { return op_; }
  const Atom& atom() const { return atom_; }
  const RegexPtr& left() const { return children_[0]; }
  const RegexPtr& right() const { return children_[1]; }
  const RegexPtr& child() const { return children_[0]; }

  /// All capture (list) variables occurring in the expression (`Var(R)`),
  /// in first-occurrence order.
  std::vector<std::string> CaptureVariables() const;

  /// All data variables occurring in element tests.
  std::vector<std::string> DataVariables() const;

  /// Whether ε ∈ L(R) (for atoms: false).
  bool Nullable() const;

  /// Number of atom occurrences (Glushkov positions) in the desugared
  /// tree, each occurrence of a shared subtree counted; saturates at
  /// SIZE_MAX.
  size_t NumPositions() const { return positions_; }

  /// Height of the syntax tree: 1 for an atom or ε. Every recursive pass
  /// over the expression, destruction included, nests this deep.
  size_t depth() const { return depth_; }

  std::string ToString() const;

 protected:
  // Construction goes through the static factories; subclassing is used
  // only by the factory implementation to reach this constructor.
  Regex(Op op, Atom atom, std::vector<RegexPtr> children)
      : op_(op), atom_(std::move(atom)), children_(std::move(children)) {
    if (op_ == Op::kAtom) positions_ = 1;
    for (const RegexPtr& c : children_) {
      depth_ = std::max(depth_, c->depth_ + 1);
      positions_ = c->positions_ > SIZE_MAX - positions_
                       ? SIZE_MAX
                       : positions_ + c->positions_;
    }
  }

 private:
  Op op_;
  Atom atom_;                      // valid iff op_ == kAtom
  std::vector<RegexPtr> children_;
  size_t depth_ = 1;
  size_t positions_ = 0;
};

}  // namespace gqzoo

#endif  // GQZOO_REGEX_AST_H_
