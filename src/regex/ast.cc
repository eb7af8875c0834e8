#include "src/regex/ast.h"

#include <algorithm>

namespace gqzoo {

std::string ElementTest::ToString() const {
  switch (kind) {
    case Kind::kAssign:
      return data_var + " := " + property;
    case Kind::kCompareConst:
      return property + " " + CompareOpName(op) + " " + constant.ToString();
    case Kind::kCompareVar:
      return property + " " + CompareOpName(op) + " " + data_var;
  }
  return "?";
}

std::string Atom::ToString() const {
  std::string inner;
  switch (label_kind) {
    case LabelKind::kOne:
      inner = labels[0];
      break;
    case LabelKind::kNegSet: {
      inner = "!{";
      for (size_t i = 0; i < labels.size(); ++i) {
        if (i > 0) inner += ",";
        inner += labels[i];
      }
      inner += "}";
      break;
    }
    case LabelKind::kAny:
      inner = "_";
      break;
    case LabelKind::kTest:
      inner = test->ToString();
      break;
  }
  if (capture.has_value()) inner += "^" + *capture;
  if (inverse) inner = "~" + inner;
  return inner;
}

namespace {

RegexPtr MakeNode(Regex::Op op, Atom atom, std::vector<RegexPtr> children) {
  struct Access : Regex {
    Access(Op op, Atom atom, std::vector<RegexPtr> children)
        : Regex(op, std::move(atom), std::move(children)) {}
  };
  return std::make_shared<Access>(op, std::move(atom), std::move(children));
}

}  // namespace

RegexPtr Regex::Epsilon() { return MakeNode(Op::kEpsilon, {}, {}); }

RegexPtr Regex::MakeAtom(Atom atom) {
  return MakeNode(Op::kAtom, std::move(atom), {});
}

RegexPtr Regex::Concat(RegexPtr lhs, RegexPtr rhs) {
  return MakeNode(Op::kConcat, {}, {std::move(lhs), std::move(rhs)});
}

RegexPtr Regex::Union(RegexPtr lhs, RegexPtr rhs) {
  return MakeNode(Op::kUnion, {}, {std::move(lhs), std::move(rhs)});
}

RegexPtr Regex::Star(RegexPtr inner) {
  return MakeNode(Op::kStar, {}, {std::move(inner)});
}

RegexPtr Regex::Plus(RegexPtr inner) {
  return MakeNode(Op::kPlus, {}, {std::move(inner)});
}

RegexPtr Regex::Optional(RegexPtr inner) {
  return MakeNode(Op::kOptional, {}, {std::move(inner)});
}

RegexPtr Regex::Repeat(RegexPtr inner, size_t lo, size_t hi) {
  // R{0,0} = ε; R{n,∞} = R^n · R*; R{n,m} = R^n · (R?)^(m-n).
  if (hi == 0) return Epsilon();
  RegexPtr result;
  for (size_t i = 0; i < lo; ++i) {
    result = result ? Concat(result, inner) : inner;
  }
  if (hi == kUnbounded) {
    RegexPtr tail = Star(inner);
    return result ? Concat(std::move(result), std::move(tail))
                  : std::move(tail);
  }
  for (size_t i = lo; i < hi; ++i) {
    RegexPtr opt = Optional(inner);
    result = result ? Concat(result, std::move(opt)) : std::move(opt);
  }
  return result ? result : Epsilon();
}

namespace {

void CollectCaptures(const Regex& r, std::vector<std::string>* out) {
  switch (r.op()) {
    case Regex::Op::kEpsilon:
      return;
    case Regex::Op::kAtom:
      if (r.atom().capture.has_value() &&
          std::find(out->begin(), out->end(), *r.atom().capture) ==
              out->end()) {
        out->push_back(*r.atom().capture);
      }
      return;
    case Regex::Op::kConcat:
    case Regex::Op::kUnion:
      CollectCaptures(*r.left(), out);
      CollectCaptures(*r.right(), out);
      return;
    case Regex::Op::kStar:
    case Regex::Op::kPlus:
    case Regex::Op::kOptional:
      CollectCaptures(*r.child(), out);
      return;
  }
}

void CollectDataVars(const Regex& r, std::vector<std::string>* out) {
  switch (r.op()) {
    case Regex::Op::kEpsilon:
      return;
    case Regex::Op::kAtom: {
      const Atom& a = r.atom();
      if (a.is_test() && !a.test->data_var.empty() &&
          std::find(out->begin(), out->end(), a.test->data_var) ==
              out->end()) {
        out->push_back(a.test->data_var);
      }
      return;
    }
    case Regex::Op::kConcat:
    case Regex::Op::kUnion:
      CollectDataVars(*r.left(), out);
      CollectDataVars(*r.right(), out);
      return;
    case Regex::Op::kStar:
    case Regex::Op::kPlus:
    case Regex::Op::kOptional:
      CollectDataVars(*r.child(), out);
      return;
  }
}

}  // namespace

std::vector<std::string> Regex::CaptureVariables() const {
  std::vector<std::string> out;
  CollectCaptures(*this, &out);
  return out;
}

std::vector<std::string> Regex::DataVariables() const {
  std::vector<std::string> out;
  CollectDataVars(*this, &out);
  return out;
}

bool Regex::Nullable() const {
  switch (op_) {
    case Op::kEpsilon:
    case Op::kStar:
    case Op::kOptional:
      return true;
    case Op::kAtom:
      return false;
    case Op::kConcat:
      return left()->Nullable() && right()->Nullable();
    case Op::kUnion:
      return left()->Nullable() || right()->Nullable();
    case Op::kPlus:
      return child()->Nullable();
  }
  return false;
}

}  // namespace gqzoo
