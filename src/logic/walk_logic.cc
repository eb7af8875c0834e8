#include "src/logic/walk_logic.h"

#include <functional>
#include <map>

#include "src/graph/csr.h"

namespace gqzoo {

namespace {

struct Access : WlFormula {};

std::shared_ptr<Access> Make() { return std::make_shared<Access>(); }

}  // namespace

WlFormulaPtr WlFormula::ExistsNode(std::string x, WlFormulaPtr body) {
  auto f = Make();
  f->kind_ = Kind::kExistsNode;
  f->var1_ = std::move(x);
  f->children_ = {std::move(body)};
  return f;
}

WlFormulaPtr WlFormula::ForallNode(std::string x, WlFormulaPtr body) {
  auto f = Make();
  f->kind_ = Kind::kForallNode;
  f->var1_ = std::move(x);
  f->children_ = {std::move(body)};
  return f;
}

WlFormulaPtr WlFormula::ExistsWalk(std::string walk, std::string x,
                                   std::string y, WlFormulaPtr body) {
  auto f = Make();
  f->kind_ = Kind::kExistsWalk;
  f->var1_ = std::move(walk);
  f->var2_ = std::move(x);
  f->var3_ = std::move(y);
  f->children_ = {std::move(body)};
  return f;
}

WlFormulaPtr WlFormula::ForallWalk(std::string walk, std::string x,
                                   std::string y, WlFormulaPtr body) {
  auto f = Make();
  f->kind_ = Kind::kForallWalk;
  f->var1_ = std::move(walk);
  f->var2_ = std::move(x);
  f->var3_ = std::move(y);
  f->children_ = {std::move(body)};
  return f;
}

WlFormulaPtr WlFormula::ExistsPos(std::string p, std::string walk,
                                  WlFormulaPtr body) {
  auto f = Make();
  f->kind_ = Kind::kExistsPos;
  f->var1_ = std::move(p);
  f->var2_ = std::move(walk);
  f->children_ = {std::move(body)};
  return f;
}

WlFormulaPtr WlFormula::ForallPos(std::string p, std::string walk,
                                  WlFormulaPtr body) {
  auto f = Make();
  f->kind_ = Kind::kForallPos;
  f->var1_ = std::move(p);
  f->var2_ = std::move(walk);
  f->children_ = {std::move(body)};
  return f;
}

WlFormulaPtr WlFormula::PosLess(std::string p, std::string q) {
  auto f = Make();
  f->kind_ = Kind::kPosLess;
  f->var1_ = std::move(p);
  f->var2_ = std::move(q);
  return f;
}

WlFormulaPtr WlFormula::EdgeLabel(std::string p, std::string label) {
  auto f = Make();
  f->kind_ = Kind::kEdgeLabel;
  f->var1_ = std::move(p);
  f->label_ = std::move(label);
  return f;
}

WlFormulaPtr WlFormula::PropCompare(std::string p, std::string k,
                                    CompareOp op, std::string q,
                                    std::string k2) {
  auto f = Make();
  f->kind_ = Kind::kPropCompare;
  f->var1_ = std::move(p);
  f->key1_ = std::move(k);
  f->op_ = op;
  f->var2_ = std::move(q);
  f->key2_ = std::move(k2);
  return f;
}

WlFormulaPtr WlFormula::PropCompareConst(std::string p, std::string k,
                                         CompareOp op, Value c) {
  auto f = Make();
  f->kind_ = Kind::kPropCompareConst;
  f->var1_ = std::move(p);
  f->key1_ = std::move(k);
  f->op_ = op;
  f->constant_ = std::move(c);
  return f;
}

WlFormulaPtr WlFormula::SrcIs(std::string p, std::string x) {
  auto f = Make();
  f->kind_ = Kind::kSrcIs;
  f->var1_ = std::move(p);
  f->var2_ = std::move(x);
  return f;
}

WlFormulaPtr WlFormula::TgtIs(std::string p, std::string x) {
  auto f = Make();
  f->kind_ = Kind::kTgtIs;
  f->var1_ = std::move(p);
  f->var2_ = std::move(x);
  return f;
}

WlFormulaPtr WlFormula::NodeEq(std::string x, std::string y) {
  auto f = Make();
  f->kind_ = Kind::kNodeEq;
  f->var1_ = std::move(x);
  f->var2_ = std::move(y);
  return f;
}

WlFormulaPtr WlFormula::And(WlFormulaPtr a, WlFormulaPtr b) {
  auto f = Make();
  f->kind_ = Kind::kAnd;
  f->children_ = {std::move(a), std::move(b)};
  return f;
}

WlFormulaPtr WlFormula::Or(WlFormulaPtr a, WlFormulaPtr b) {
  auto f = Make();
  f->kind_ = Kind::kOr;
  f->children_ = {std::move(a), std::move(b)};
  return f;
}

WlFormulaPtr WlFormula::Not(WlFormulaPtr a) {
  auto f = Make();
  f->kind_ = Kind::kNot;
  f->children_ = {std::move(a)};
  return f;
}

std::string WlFormula::ToString() const {
  switch (kind_) {
    case Kind::kExistsNode:
      return "exists " + var1_ + ". " + child()->ToString();
    case Kind::kForallNode:
      return "forall " + var1_ + ". " + child()->ToString();
    case Kind::kExistsWalk:
      return "exists walk " + var1_ + "(" + var2_ + ", " + var3_ + "). " +
             child()->ToString();
    case Kind::kForallWalk:
      return "forall walk " + var1_ + "(" + var2_ + ", " + var3_ + "). " +
             child()->ToString();
    case Kind::kExistsPos:
      return "exists " + var1_ + " in " + var2_ + ". " + child()->ToString();
    case Kind::kForallPos:
      return "forall " + var1_ + " in " + var2_ + ". " + child()->ToString();
    case Kind::kPosLess:
      return var1_ + " < " + var2_;
    case Kind::kEdgeLabel:
      return "edge_" + label_ + "(" + var1_ + ")";
    case Kind::kPropCompare:
      return "prop(" + var1_ + ")." + key1_ + " " + CompareOpName(op_) +
             " prop(" + var2_ + ")." + key2_;
    case Kind::kPropCompareConst:
      return "prop(" + var1_ + ")." + key1_ + " " + CompareOpName(op_) + " " +
             constant_.ToString();
    case Kind::kSrcIs:
      return "src(" + var1_ + ") = " + var2_;
    case Kind::kTgtIs:
      return "tgt(" + var1_ + ") = " + var2_;
    case Kind::kNodeEq:
      return var1_ + " = " + var2_;
    case Kind::kAnd:
      return "(" + left()->ToString() + " and " + right()->ToString() + ")";
    case Kind::kOr:
      return "(" + left()->ToString() + " or " + right()->ToString() + ")";
    case Kind::kNot:
      return "not (" + child()->ToString() + ")";
  }
  return "?";
}

namespace {

struct Env {
  std::map<std::string, NodeId> nodes;
  std::map<std::string, std::vector<EdgeId>> walks;  // walk -> edge sequence
  std::map<std::string, std::pair<std::string, size_t>> positions;
  // position var -> (walk var, index)
};

class Checker {
 public:
  Checker(const PropertyGraph& g, const WalkLogicOptions& options)
      : g_(g), snap_(g.skeleton()), options_(options) {}

  Result<bool> Eval(const WlFormula& f, Env* env) {
    switch (f.kind()) {
      case WlFormula::Kind::kExistsNode:
      case WlFormula::Kind::kForallNode: {
        const bool exists = f.kind() == WlFormula::Kind::kExistsNode;
        for (NodeId n = 0; n < g_.NumNodes(); ++n) {
          env->nodes[f.var1()] = n;
          Result<bool> v = Eval(*f.child(), env);
          if (!v.ok()) return v;
          if (v.value() == exists) {
            env->nodes.erase(f.var1());
            return exists;
          }
        }
        env->nodes.erase(f.var1());
        return !exists;
      }
      case WlFormula::Kind::kExistsWalk:
      case WlFormula::Kind::kForallWalk: {
        const bool exists = f.kind() == WlFormula::Kind::kExistsWalk;
        auto from = env->nodes.find(f.var2());
        auto to = env->nodes.find(f.var3());
        if (from == env->nodes.end() || to == env->nodes.end()) {
          return Error("walk endpoints '" + f.var2() + "', '" + f.var3() +
                       "' must be bound node variables");
        }
        NodeId target = to->second;
        bool verdict = !exists;
        bool done = false;
        std::vector<EdgeId> edges;
        // DFS over all walks from `from` up to the bound, in snapshot slice
        // order (the verdict does not depend on it); evaluate the body
        // whenever the walk ends at `target` (including the empty walk).
        std::function<Result<bool>(NodeId)> dfs =
            [&](NodeId at) -> Result<bool> {
          if (done) return true;
          if (at == target) {
            env->walks[f.var1()] = edges;
            Result<bool> v = Eval(*f.child(), env);
            env->walks.erase(f.var1());
            if (!v.ok()) return v;
            if (v.value() == exists) {
              verdict = exists;
              done = true;
              return true;
            }
          }
          if (edges.size() >= options_.max_walk_length) return true;
          for (const GraphSnapshot::Hop& hop : snap_.Out(at)) {
            edges.push_back(hop.edge);
            Result<bool> sub = dfs(hop.node);
            edges.pop_back();
            if (!sub.ok()) return sub;
            if (done) return true;
          }
          return true;
        };
        Result<bool> run = dfs(from->second);
        if (!run.ok()) return run;
        return verdict;
      }
      case WlFormula::Kind::kExistsPos:
      case WlFormula::Kind::kForallPos: {
        const bool exists = f.kind() == WlFormula::Kind::kExistsPos;
        auto walk = env->walks.find(f.var2());
        if (walk == env->walks.end()) {
          return Error("position quantifier over unbound walk '" + f.var2() +
                       "'");
        }
        const size_t len = walk->second.size();
        for (size_t i = 0; i < len; ++i) {
          env->positions[f.var1()] = {f.var2(), i};
          Result<bool> v = Eval(*f.child(), env);
          if (!v.ok()) return v;
          if (v.value() == exists) {
            env->positions.erase(f.var1());
            return exists;
          }
        }
        env->positions.erase(f.var1());
        return !exists;
      }
      case WlFormula::Kind::kPosLess: {
        Result<std::pair<std::string, size_t>> p = Pos(f.var1(), *env);
        if (!p.ok()) return p.error();
        Result<std::pair<std::string, size_t>> q = Pos(f.var2(), *env);
        if (!q.ok()) return q.error();
        return p.value().second < q.value().second;
      }
      case WlFormula::Kind::kEdgeLabel: {
        Result<EdgeId> e = EdgeAt(f.var1(), *env);
        if (!e.ok()) return e.error();
        std::optional<LabelId> l = g_.FindLabel(f.label());
        return l.has_value() && g_.EdgeLabel(e.value()) == *l;
      }
      case WlFormula::Kind::kPropCompare: {
        Result<EdgeId> e1 = EdgeAt(f.var1(), *env);
        if (!e1.ok()) return e1.error();
        Result<EdgeId> e2 = EdgeAt(f.var2(), *env);
        if (!e2.ok()) return e2.error();
        std::optional<Value> a =
            g_.GetProperty(ObjectRef::Edge(e1.value()), f.key1());
        std::optional<Value> b =
            g_.GetProperty(ObjectRef::Edge(e2.value()), f.key2());
        if (!a.has_value() || !b.has_value()) return false;
        return Value::Compare(*a, f.op(), *b);
      }
      case WlFormula::Kind::kPropCompareConst: {
        Result<EdgeId> e = EdgeAt(f.var1(), *env);
        if (!e.ok()) return e.error();
        std::optional<Value> a =
            g_.GetProperty(ObjectRef::Edge(e.value()), f.key1());
        if (!a.has_value()) return false;
        return Value::Compare(*a, f.op(), f.constant());
      }
      case WlFormula::Kind::kSrcIs:
      case WlFormula::Kind::kTgtIs: {
        Result<EdgeId> e = EdgeAt(f.var1(), *env);
        if (!e.ok()) return e.error();
        auto x = env->nodes.find(f.var2());
        if (x == env->nodes.end()) {
          return Error("unbound node variable '" + f.var2() + "'");
        }
        NodeId endpoint = f.kind() == WlFormula::Kind::kSrcIs
                              ? g_.Src(e.value())
                              : g_.Tgt(e.value());
        return endpoint == x->second;
      }
      case WlFormula::Kind::kNodeEq: {
        auto x = env->nodes.find(f.var1());
        auto y = env->nodes.find(f.var2());
        if (x == env->nodes.end() || y == env->nodes.end()) {
          return Error("unbound node variable in equality");
        }
        return x->second == y->second;
      }
      case WlFormula::Kind::kAnd: {
        Result<bool> l = Eval(*f.left(), env);
        if (!l.ok() || !l.value()) return l;
        return Eval(*f.right(), env);
      }
      case WlFormula::Kind::kOr: {
        Result<bool> l = Eval(*f.left(), env);
        if (!l.ok() || l.value()) return l;
        return Eval(*f.right(), env);
      }
      case WlFormula::Kind::kNot: {
        Result<bool> v = Eval(*f.child(), env);
        if (!v.ok()) return v;
        return !v.value();
      }
    }
    return Error("unknown formula kind");
  }

 private:
  Result<std::pair<std::string, size_t>> Pos(const std::string& var,
                                             const Env& env) {
    auto it = env.positions.find(var);
    if (it == env.positions.end()) {
      return Error("unbound position variable '" + var + "'");
    }
    return it->second;
  }

  Result<EdgeId> EdgeAt(const std::string& var, const Env& env) {
    Result<std::pair<std::string, size_t>> pos = Pos(var, env);
    if (!pos.ok()) return pos.error();
    auto walk = env.walks.find(pos.value().first);
    if (walk == env.walks.end()) {
      return Error("position '" + var + "' refers to unbound walk");
    }
    return walk->second[pos.value().second];
  }

  const PropertyGraph& g_;
  const GraphSnapshot snap_;
  const WalkLogicOptions& options_;
};

}  // namespace

Result<bool> CheckWalkLogic(const PropertyGraph& g, const WlFormula& formula,
                            const WalkLogicOptions& options,
                            const std::map<std::string, NodeId>& bindings) {
  Checker checker(g, options);
  Env env;
  env.nodes = bindings;
  return checker.Eval(formula, &env);
}

}  // namespace gqzoo
