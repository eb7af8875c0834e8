#include "src/coregql/pattern.h"

#include <algorithm>
#include <set>

namespace gqzoo {

namespace {

struct CondAccess : CoreCondition {};
struct PatternAccess : CorePattern {};

template <typename T, typename Base>
std::shared_ptr<T> MakeMutable() {
  return std::make_shared<T>();
}

}  // namespace

// --- CoreCondition -----------------------------------------------------

#define GQZOO_MUTABLE_COND(ptr) auto ptr = std::make_shared<CondAccess>()

CoreCondPtr CoreCondition::CompareProps(std::string x, std::string k,
                                        CompareOp op, std::string y,
                                        std::string k2) {
  GQZOO_MUTABLE_COND(c);
  c->kind_ = Kind::kCompareProps;
  c->var1_ = std::move(x);
  c->key1_ = std::move(k);
  c->op_ = op;
  c->var2_ = std::move(y);
  c->key2_ = std::move(k2);
  return c;
}

CoreCondPtr CoreCondition::CompareConst(std::string x, std::string k,
                                        CompareOp op, Value v) {
  GQZOO_MUTABLE_COND(c);
  c->kind_ = Kind::kCompareConst;
  c->var1_ = std::move(x);
  c->key1_ = std::move(k);
  c->op_ = op;
  c->constant_ = std::move(v);
  return c;
}

CoreCondPtr CoreCondition::LabelIs(std::string x, std::string label) {
  GQZOO_MUTABLE_COND(c);
  c->kind_ = Kind::kLabelIs;
  c->var1_ = std::move(x);
  c->label_ = std::move(label);
  return c;
}

CoreCondPtr CoreCondition::And(CoreCondPtr a, CoreCondPtr b) {
  GQZOO_MUTABLE_COND(c);
  c->kind_ = Kind::kAnd;
  c->depth_ = std::max(a->depth_, b->depth_) + 1;
  c->children_ = {std::move(a), std::move(b)};
  return c;
}

CoreCondPtr CoreCondition::Or(CoreCondPtr a, CoreCondPtr b) {
  GQZOO_MUTABLE_COND(c);
  c->kind_ = Kind::kOr;
  c->depth_ = std::max(a->depth_, b->depth_) + 1;
  c->children_ = {std::move(a), std::move(b)};
  return c;
}

CoreCondPtr CoreCondition::Not(CoreCondPtr a) {
  GQZOO_MUTABLE_COND(c);
  c->kind_ = Kind::kNot;
  c->depth_ = a->depth_ + 1;
  c->children_ = {std::move(a)};
  return c;
}

std::string CoreCondition::ToString() const {
  switch (kind_) {
    case Kind::kCompareProps:
      return var1_ + "." + key1_ + " " + CompareOpName(op_) + " " + var2_ +
             "." + key2_;
    case Kind::kCompareConst:
      return var1_ + "." + key1_ + " " + CompareOpName(op_) + " " +
             constant_.ToString();
    case Kind::kLabelIs:
      return var1_ + ":" + label_;
    case Kind::kAnd:
      return "(" + left()->ToString() + " AND " + right()->ToString() + ")";
    case Kind::kOr:
      return "(" + left()->ToString() + " OR " + right()->ToString() + ")";
    case Kind::kNot:
      return "NOT (" + child()->ToString() + ")";
  }
  return "?";
}

// --- CorePattern --------------------------------------------------------

#define GQZOO_MUTABLE_PATTERN(ptr) auto ptr = std::make_shared<PatternAccess>()

CorePatternPtr CorePattern::Node(std::optional<std::string> var,
                                 std::optional<std::string> label) {
  GQZOO_MUTABLE_PATTERN(p);
  p->kind_ = Kind::kNode;
  p->var_ = std::move(var);
  p->label_ = std::move(label);
  return p;
}

CorePatternPtr CorePattern::Edge(std::optional<std::string> var,
                                 std::optional<std::string> label) {
  GQZOO_MUTABLE_PATTERN(p);
  p->kind_ = Kind::kEdge;
  p->var_ = std::move(var);
  p->label_ = std::move(label);
  return p;
}

CorePatternPtr CorePattern::Concat(CorePatternPtr a, CorePatternPtr b) {
  GQZOO_MUTABLE_PATTERN(p);
  p->kind_ = Kind::kConcat;
  p->depth_ = std::max(a->depth_, b->depth_) + 1;
  p->children_ = {std::move(a), std::move(b)};
  return p;
}

CorePatternPtr CorePattern::Union(CorePatternPtr a, CorePatternPtr b) {
  GQZOO_MUTABLE_PATTERN(p);
  p->kind_ = Kind::kUnion;
  p->depth_ = std::max(a->depth_, b->depth_) + 1;
  p->children_ = {std::move(a), std::move(b)};
  return p;
}

CorePatternPtr CorePattern::Repeat(CorePatternPtr inner, size_t lo,
                                   size_t hi) {
  GQZOO_MUTABLE_PATTERN(p);
  p->kind_ = Kind::kRepeat;
  p->lo_ = lo;
  p->hi_ = hi;
  p->depth_ = inner->depth_ + 1;
  p->children_ = {std::move(inner)};
  return p;
}

CorePatternPtr CorePattern::Where(CorePatternPtr inner, CoreCondPtr cond) {
  GQZOO_MUTABLE_PATTERN(p);
  p->kind_ = Kind::kCondition;
  p->depth_ = std::max(inner->depth_, cond->depth()) + 1;
  p->cond_ = std::move(cond);
  p->children_ = {std::move(inner)};
  return p;
}

namespace {

void CollectFree(const CorePattern& p, std::vector<std::string>* out) {
  switch (p.kind()) {
    case CorePattern::Kind::kNode:
    case CorePattern::Kind::kEdge:
      if (p.var().has_value() &&
          std::find(out->begin(), out->end(), *p.var()) == out->end()) {
        out->push_back(*p.var());
      }
      return;
    case CorePattern::Kind::kConcat:
      CollectFree(*p.left(), out);
      CollectFree(*p.right(), out);
      return;
    case CorePattern::Kind::kUnion:
      // FV(π1 + π2) := FV(π1) (the side condition makes both arms equal).
      CollectFree(*p.left(), out);
      return;
    case CorePattern::Kind::kRepeat:
      // FV(π^{n..m}) := ∅ — repetition erases free variables, keeping
      // outputs first-normal-form (no lists).
      return;
    case CorePattern::Kind::kCondition:
      CollectFree(*p.child(), out);
      return;
  }
}

void CollectAll(const CorePattern& p, std::vector<std::string>* out) {
  switch (p.kind()) {
    case CorePattern::Kind::kNode:
    case CorePattern::Kind::kEdge:
      if (p.var().has_value() &&
          std::find(out->begin(), out->end(), *p.var()) == out->end()) {
        out->push_back(*p.var());
      }
      return;
    case CorePattern::Kind::kConcat:
    case CorePattern::Kind::kUnion:
      CollectAll(*p.left(), out);
      CollectAll(*p.right(), out);
      return;
    case CorePattern::Kind::kRepeat:
    case CorePattern::Kind::kCondition:
      CollectAll(*p.child(), out);
      return;
  }
}

Result<bool> ValidateRec(const CorePattern& p) {
  switch (p.kind()) {
    case CorePattern::Kind::kNode:
    case CorePattern::Kind::kEdge:
      return true;
    case CorePattern::Kind::kConcat: {
      Result<bool> l = ValidateRec(*p.left());
      if (!l.ok()) return l;
      return ValidateRec(*p.right());
    }
    case CorePattern::Kind::kUnion: {
      std::vector<std::string> lhs = p.left()->FreeVariables();
      std::vector<std::string> rhs = p.right()->FreeVariables();
      std::set<std::string> ls(lhs.begin(), lhs.end());
      std::set<std::string> rs(rhs.begin(), rhs.end());
      if (ls != rs) {
        return Error(
            "disjunction arms must have the same free variables "
            "(CoreGQL forbids nulls): " +
            p.ToString());
      }
      Result<bool> l = ValidateRec(*p.left());
      if (!l.ok()) return l;
      return ValidateRec(*p.right());
    }
    case CorePattern::Kind::kRepeat:
    case CorePattern::Kind::kCondition:
      return ValidateRec(*p.child());
  }
  return true;
}

}  // namespace

std::vector<std::string> CorePattern::FreeVariables() const {
  std::vector<std::string> out;
  CollectFree(*this, &out);
  return out;
}

std::vector<std::string> CorePattern::AllVariables() const {
  std::vector<std::string> out;
  CollectAll(*this, &out);
  return out;
}

Result<bool> CorePattern::Validate() const { return ValidateRec(*this); }

std::string CorePattern::ToString() const {
  switch (kind_) {
    case Kind::kNode: {
      std::string out = "(" + var_.value_or("");
      if (label_.has_value()) out += ":" + *label_;
      return out + ")";
    }
    case Kind::kEdge: {
      if (!var_.has_value() && !label_.has_value()) return "->";
      std::string out = "-[" + var_.value_or("");
      if (label_.has_value()) out += ":" + *label_;
      return out + "]->";
    }
    case Kind::kConcat:
      return left()->ToString() + " " + right()->ToString();
    case Kind::kUnion:
      return "(" + left()->ToString() + " | " + right()->ToString() + ")";
    case Kind::kRepeat: {
      std::string bounds;
      if (lo_ == 0 && hi_ == kUnbounded) {
        bounds = "*";
      } else if (lo_ == 1 && hi_ == kUnbounded) {
        bounds = "+";
      } else if (lo_ == 0 && hi_ == 1) {
        bounds = "?";
      } else if (hi_ == kUnbounded) {
        bounds = "{" + std::to_string(lo_) + ",}";
      } else if (lo_ == hi_) {
        bounds = "{" + std::to_string(lo_) + "}";
      } else {
        bounds = "{" + std::to_string(lo_) + "," + std::to_string(hi_) + "}";
      }
      return "(" + child()->ToString() + ")" + bounds;
    }
    case Kind::kCondition:
      return "(" + child()->ToString() + " WHERE " + cond_->ToString() + ")";
  }
  return "?";
}

}  // namespace gqzoo
